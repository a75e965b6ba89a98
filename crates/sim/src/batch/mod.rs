//! Lane-batch sizing shared by the sweep engine's dispatch groups.

/// Maximum cells in one shared-lowering dispatch group (and lanes in one
/// `run_prepared_batch_in` call a caller packs): the sweep's greedy
/// packer fills groups to this size before opening the next.
pub const MAX_CLASSES: usize = 64;
