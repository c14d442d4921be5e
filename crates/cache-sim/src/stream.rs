//! Synthetic address streams.
//!
//! The two traversals of a row-major matrix: the cache-friendly and the
//! cache-hostile direction. They sanity-check the simulator and the
//! CF/CU classification in [`crate::profile`]; the Figure-1 workload
//! builds its own access stream (`apps::convolve_model`).

/// Row-major traversal of an `rows x cols` matrix of `elem`-byte elements
/// starting at `base`. This is the cache-friendly direction.
pub fn row_major(base: u64, rows: u64, cols: u64, elem: u64) -> impl Iterator<Item = u64> {
    (0..rows).flat_map(move |r| (0..cols).map(move |c| base + (r * cols + c) * elem))
}

/// Column-major traversal of the same row-major matrix — the cache-hostile
/// direction once a column of lines exceeds the cache.
pub fn col_major(base: u64, rows: u64, cols: u64, elem: u64) -> impl Iterator<Item = u64> {
    (0..cols).flat_map(move |c| (0..rows).map(move |r| base + (r * cols + c) * elem))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;
    use crate::hierarchy::Hierarchy;

    #[test]
    fn row_major_is_contiguous() {
        let v: Vec<u64> = row_major(0, 2, 3, 8).collect();
        assert_eq!(v, vec![0, 8, 16, 24, 32, 40]);
    }

    #[test]
    fn col_major_strides_by_row_length() {
        let v: Vec<u64> = col_major(0, 2, 3, 8).collect();
        assert_eq!(v, vec![0, 24, 8, 32, 16, 40]);
    }

    #[test]
    fn row_major_beats_col_major_on_l1() {
        // 256x256 matrix of 8-byte elements = 512 KiB, larger than tiny L3.
        let mut row = Hierarchy::new(HierarchyConfig::tiny());
        let mut col = Hierarchy::new(HierarchyConfig::tiny());
        let rm = row.run(row_major(0, 256, 256, 8));
        let cm = col.run(col_major(0, 256, 256, 8));
        assert!(rm < 0.2, "row-major miss ratio {rm}");
        assert!(cm > 0.9, "col-major miss ratio {cm}");
    }
}
