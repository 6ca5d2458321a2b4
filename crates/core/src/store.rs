//! The driver-facing store abstraction: [`SimStore`] and [`DriverEvent`]
//! live in the `node` crate, under both clusters, so each cluster
//! implements the surface itself; this module re-exports them.

pub use node::{DriverEvent, SimStore};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_impls_expose_names_and_counters() {
        let scale = crate::setup::Scale::tiny();
        let h = crate::setup::build_hstore(&scale, 1);
        let c = crate::setup::build_cstore(
            &scale,
            1,
            cstore::Consistency::One,
            cstore::Consistency::One,
        );
        assert_eq!(SimStore::name(&h), "hstore");
        assert_eq!(SimStore::name(&c), "cstore");
        let hc = SimStore::counters(&h);
        let cc = SimStore::counters(&c);
        assert!(hc.iter().any(|(k, _)| *k == "regions_moved"));
        assert!(cc.iter().any(|(k, _)| *k == "repair_writes"));
    }

    #[test]
    fn tracer_accessible_through_trait() {
        let scale = crate::setup::Scale::tiny();
        let mut h = crate::setup::build_hstore(&scale, 1);
        assert!(!SimStore::tracer_mut(&mut h).enabled());
        SimStore::tracer_mut(&mut h).enable();
        assert!(SimStore::tracer_mut(&mut h).enabled());
    }
}
