//! Identifier newtypes for filesystem objects.

/// Identity of one stored block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct BlockId(pub u64);

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blk{}", self.0)
    }
}

/// Identity of one file (an ordered list of blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u64);

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "file{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(BlockId(3).to_string(), "blk3");
        assert_eq!(FileId(9).to_string(), "file9");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        assert!(BlockId(1) < BlockId(2));
        let set: HashSet<_> = [FileId(1), FileId(1), FileId(2)].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
