//! The paper's published measurements (Tables 1–5), embedded as reference
//! data.
//!
//! These numbers serve two purposes: the **SMM 0** columns calibrate the
//! timing models (the paper's cluster, network stack and compilers are
//! unknowable, so baselines are inputs), and the **SMM 1/2** columns are
//! the targets our simulation's *predictions* are compared against in
//! EXPERIMENTS.md.
//!
//! Row convention (deduced from the tables' internal consistency, e.g.
//! Table 2 class A: 23.12 s at row 1 × 1 rank/node vs 5.87 s at row 1 ×
//! 4 ranks/node = one node, four ranks): the "MPI rks" row label is the
//! **number of nodes**; total ranks = nodes × ranks-per-node.

use crate::classes::Class;

/// Which NAS benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, jsonio::ToJson)]
pub enum Bench {
    /// Embarrassingly Parallel.
    Ep,
    /// Block Tri-diagonal solver.
    Bt,
    /// 3-D Fast Fourier Transform.
    Ft,
}

impl Bench {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Bench::Ep => "EP",
            Bench::Bt => "BT",
            Bench::Ft => "FT",
        }
    }

    /// The node counts the paper's table uses for this benchmark.
    pub fn node_counts(&self) -> &'static [u32] {
        match self {
            Bench::Bt => &[1, 4, 16],
            Bench::Ep | Bench::Ft => &[1, 2, 4, 8, 16],
        }
    }
}

/// One table cell: seconds for SMM 0 / SMM 1 / SMM 2. `None` marks the
/// paper's "-" entries (FT class C did not fit on 1–2 nodes with one
/// rank per node).
#[derive(Clone, Copy, Debug, PartialEq, jsonio::ToJson)]
pub struct PaperCell {
    /// Seconds under no / short / long SMIs.
    pub smm: [Option<f64>; 3],
}

impl PaperCell {
    const fn full(a: f64, b: f64, c: f64) -> Self {
        PaperCell { smm: [Some(a), Some(b), Some(c)] }
    }
    const EMPTY: PaperCell = PaperCell { smm: [None, None, None] };

    /// The baseline (SMM 0) seconds, if measured.
    pub fn baseline(&self) -> Option<f64> {
        self.smm[0]
    }
}

type Row = (u32, PaperCell, PaperCell); // (nodes, 1 rank/node, 4 ranks/node)

const BT_A: [Row; 3] = [
    (1, PaperCell::full(86.87, 86.89, 96.24), PaperCell::full(24.89, 24.88, 27.55)),
    (4, PaperCell::full(27.44, 27.57, 39.53), PaperCell::full(53.78, 50.93, 64.13)),
    (16, PaperCell::full(48.51, 48.93, 95.23), PaperCell::full(103.27, 102.39, 173.93)),
];
const BT_B: [Row; 3] = [
    (1, PaperCell::full(369.7, 369.55, 409.36), PaperCell::full(103.44, 103.4, 114.52)),
    (4, PaperCell::full(108.1, 108.58, 148.39), PaperCell::full(85.53, 85.31, 108.94)),
    (16, PaperCell::full(123.79, 124.44, 179.56), PaperCell::full(173.78, 174.77, 262.97)),
];
const BT_C: [Row; 3] = [
    (1, PaperCell::full(1585.75, 1585.95, 1756.33), PaperCell::full(424.39, 424.51, 470.35)),
    (4, PaperCell::full(419.75, 420.67, 537.73), PaperCell::full(219.86, 218.9, 281.38)),
    (16, PaperCell::full(336.84, 336.58, 439.49), PaperCell::full(402.26, 403.79, 535.67)),
];

const EP_A: [Row; 5] = [
    (1, PaperCell::full(23.12, 23.18, 25.66), PaperCell::full(5.87, 5.87, 6.47)),
    (2, PaperCell::full(11.69, 11.6, 13.15), PaperCell::full(2.93, 2.93, 3.35)),
    (4, PaperCell::full(5.84, 5.8, 6.77), PaperCell::full(1.47, 1.47, 1.75)),
    (8, PaperCell::full(2.92, 2.94, 3.5), PaperCell::full(0.73, 0.74, 0.95)),
    (16, PaperCell::full(1.46, 1.47, 2.04), PaperCell::full(0.37, 0.42, 0.65)),
];
const EP_B: [Row; 5] = [
    (1, PaperCell::full(92.72, 93.17, 102.5), PaperCell::full(23.49, 23.42, 25.97)),
    (2, PaperCell::full(46.35, 46.59, 52.58), PaperCell::full(11.71, 11.66, 13.27)),
    (4, PaperCell::full(23.33, 23.28, 26.71), PaperCell::full(5.9, 5.93, 6.77)),
    (8, PaperCell::full(11.67, 11.74, 13.51), PaperCell::full(2.96, 2.95, 3.58)),
    (16, PaperCell::full(5.86, 5.9, 7.03), PaperCell::full(1.59, 1.49, 2.06)),
];
const EP_C: [Row; 5] = [
    (1, PaperCell::full(370.67, 372.53, 411.19), PaperCell::full(93.86, 93.33, 104.0)),
    (2, PaperCell::full(185.1, 185.87, 210.03), PaperCell::full(46.96, 46.85, 53.01)),
    (4, PaperCell::full(93.36, 93.34, 106.47), PaperCell::full(23.47, 23.48, 28.32)),
    (8, PaperCell::full(46.9, 47.09, 53.59), PaperCell::full(11.78, 12.61, 13.66)),
    (16, PaperCell::full(24.94, 25.16, 28.49), PaperCell::full(5.91, 5.9, 7.53)),
];

const FT_A: [Row; 5] = [
    (1, PaperCell::full(7.64, 7.61, 8.41), PaperCell::full(2.49, 2.49, 2.78)),
    (2, PaperCell::full(6.22, 6.21, 7.96), PaperCell::full(3.34, 3.34, 4.21)),
    (4, PaperCell::full(4.25, 4.24, 6.05), PaperCell::full(5.69, 5.49, 6.96)),
    (8, PaperCell::full(2.22, 2.22, 4.32), PaperCell::full(9.51, 9.22, 13.6)),
    (16, PaperCell::full(6.5, 6.39, 10.43), PaperCell::full(20.57, 20.51, 28.42)),
];
const FT_B: [Row; 5] = [
    (1, PaperCell::full(95.48, 95.65, 106.09), PaperCell::full(31.2, 31.2, 34.53)),
    (2, PaperCell::full(76.35, 76.31, 91.46), PaperCell::full(40.46, 40.38, 49.97)),
    (4, PaperCell::full(51.85, 51.73, 67.24), PaperCell::full(39.46, 39.65, 52.37)),
    (8, PaperCell::full(26.74, 26.74, 41.52), PaperCell::full(56.19, 58.01, 74.52)),
    (16, PaperCell::full(82.18, 82.96, 110.93), PaperCell::full(127.33, 127.28, 157.82)),
];
const FT_C: [Row; 5] = [
    (1, PaperCell::EMPTY, PaperCell::full(135.96, 136.09, 150.59)),
    (2, PaperCell::EMPTY, PaperCell::full(163.06, 165.12, 200.84)),
    (4, PaperCell::full(216.75, 216.58, 264.44), PaperCell::full(125.66, 126.34, 163.17)),
    (8, PaperCell::full(111.31, 111.44, 145.04), PaperCell::full(107.47, 107.88, 141.09)),
    (16, PaperCell::full(315.42, 313.81, 419.34), PaperCell::full(339.0, 337.92, 412.11)),
];

/// Tables 1–3: the cell for `(bench, class, nodes, ranks_per_node)`;
/// `None` if the paper has no such row.
pub fn table_cell(
    bench: Bench,
    class: Class,
    nodes: u32,
    ranks_per_node: u32,
) -> Option<PaperCell> {
    assert!(ranks_per_node == 1 || ranks_per_node == 4, "paper measured 1 or 4 ranks/node");
    let rows: &[Row] = match (bench, class) {
        (Bench::Bt, Class::A) => &BT_A,
        (Bench::Bt, Class::B) => &BT_B,
        (Bench::Bt, Class::C) => &BT_C,
        (Bench::Ep, Class::A) => &EP_A,
        (Bench::Ep, Class::B) => &EP_B,
        (Bench::Ep, Class::C) => &EP_C,
        (Bench::Ft, Class::A) => &FT_A,
        (Bench::Ft, Class::B) => &FT_B,
        (Bench::Ft, Class::C) => &FT_C,
        _ => return None,
    };
    rows.iter()
        .find(|&&(n, _, _)| n == nodes)
        .map(|(_, one, four)| if ranks_per_node == 1 { *one } else { *four })
}

/// One HTT-study cell: seconds for `[smm][ht]` (Tables 4–5, 4 ranks/node).
#[derive(Clone, Copy, Debug, PartialEq, jsonio::ToJson)]
pub struct HttCell {
    /// `[SMM 0/1/2][ht=0, ht=1]` seconds.
    pub smm_ht: [[f64; 2]; 3],
}

type HttRow = (u32, [[f64; 2]; 3]);

const EP_HTT_A: [HttRow; 5] = [
    (1, [[5.87, 5.81], [5.87, 5.81], [6.47, 6.78]]),
    (2, [[2.93, 2.91], [2.93, 2.93], [3.35, 3.45]]),
    (4, [[1.47, 1.46], [1.47, 1.46], [1.75, 1.77]]),
    (8, [[0.73, 0.74], [0.74, 0.74], [0.95, 0.99]]),
    (16, [[0.37, 0.39], [0.42, 0.39], [0.65, 0.88]]),
];
const EP_HTT_B: [HttRow; 5] = [
    (1, [[23.49, 23.3], [23.42, 23.24], [25.97, 26.94]]),
    (2, [[11.71, 11.69], [11.66, 11.7], [13.27, 13.56]]),
    (4, [[5.9, 5.86], [5.93, 6.67], [6.77, 6.85]]),
    (8, [[2.96, 2.95], [2.95, 2.94], [3.58, 3.56]]),
    (16, [[1.59, 1.48], [1.49, 1.5], [2.06, 2.14]]),
];
const EP_HTT_C: [HttRow; 5] = [
    (1, [[93.86, 93.24], [93.33, 93.33], [104.0, 108.2]]),
    (2, [[46.96, 46.43], [46.85, 47.18], [53.01, 53.94]]),
    (4, [[23.47, 23.44], [23.48, 23.49], [28.32, 27.39]]),
    (8, [[11.78, 11.71], [12.61, 11.76], [13.66, 13.77]]),
    (16, [[5.91, 5.91], [5.9, 5.93], [7.53, 7.58]]),
];

const FT_HTT_A: [HttRow; 5] = [
    (1, [[2.49, 2.49], [2.49, 2.49], [2.78, 2.89]]),
    (2, [[3.34, 3.33], [3.34, 3.33], [4.21, 4.19]]),
    (4, [[5.69, 5.63], [5.49, 5.28], [6.96, 6.97]]),
    (8, [[9.51, 9.78], [9.22, 9.89], [13.6, 12.33]]),
    (16, [[20.57, 20.21], [20.51, 20.1], [28.42, 25.69]]),
];
const FT_HTT_B: [HttRow; 5] = [
    (1, [[31.2, 31.08], [31.2, 31.13], [34.53, 35.94]]),
    (2, [[40.46, 40.41], [40.38, 40.3], [49.97, 50.18]]),
    (4, [[39.46, 39.78], [39.65, 39.41], [52.37, 48.86]]),
    (8, [[56.19, 57.09], [58.01, 56.23], [74.52, 69.18]]),
    (16, [[127.33, 127.74], [127.28, 129.95], [157.82, 154.64]]),
];
const FT_HTT_C: [HttRow; 5] = [
    (1, [[135.96, 135.59], [136.09, 135.5], [150.59, 157.04]]),
    (2, [[163.06, 165.57], [165.12, 164.33], [200.84, 206.55]]),
    (4, [[125.66, 125.8], [126.34, 125.57], [163.17, 160.26]]),
    (8, [[107.47, 108.15], [107.88, 106.92], [141.09, 134.8]]),
    (16, [[339.0, 331.25], [337.92, 330.41], [412.11, 392.96]]),
];

/// Tables 4–5: the HTT cell for `(bench, class, nodes)`; EP and FT only,
/// always 4 ranks per node.
pub fn htt_cell(bench: Bench, class: Class, nodes: u32) -> Option<HttCell> {
    let rows: &[HttRow] = match (bench, class) {
        (Bench::Ep, Class::A) => &EP_HTT_A,
        (Bench::Ep, Class::B) => &EP_HTT_B,
        (Bench::Ep, Class::C) => &EP_HTT_C,
        (Bench::Ft, Class::A) => &FT_HTT_A,
        (Bench::Ft, Class::B) => &FT_HTT_B,
        (Bench::Ft, Class::C) => &FT_HTT_C,
        _ => return None,
    };
    rows.iter().find(|&&(n, _)| n == nodes).map(|&(_, smm_ht)| HttCell { smm_ht })
}

/// The serial (1 rank, SMM 0) baseline used for calibration. FT class C
/// has no 1-rank measurement; the value is extrapolated from classes A/B
/// by operation count (N·log2 N at ~5.5 ns per unit; see DESIGN.md).
pub fn serial_seconds(bench: Bench, class: Class) -> f64 {
    match (bench, class) {
        (Bench::Ep, Class::A) => 23.12,
        (Bench::Ep, Class::B) => 92.72,
        (Bench::Ep, Class::C) => 370.67,
        (Bench::Bt, Class::A) => 86.87,
        (Bench::Bt, Class::B) => 369.7,
        (Bench::Bt, Class::C) => 1585.75,
        (Bench::Ft, Class::A) => 7.64,
        (Bench::Ft, Class::B) => 95.48,
        (Bench::Ft, Class::C) => 418.0,
        #[expect(
            clippy::panic,
            reason = "only the published (bench, class) pairs above exist in the paper; \
                      asking for any other is a programming error, not a runtime condition"
        )]
        _ => panic!("no paper baseline for {bench:?} class {}", class.letter()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_convention_is_consistent() {
        // One node, 4 ranks of EP A should be ~4x faster than one node,
        // 1 rank — confirming the "row = nodes" reading.
        let one = table_cell(Bench::Ep, Class::A, 1, 1).unwrap().baseline().unwrap();
        let four = table_cell(Bench::Ep, Class::A, 1, 4).unwrap().baseline().unwrap();
        let speedup = one / four;
        assert!((3.7..4.3).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn ft_class_c_small_cells_are_absent() {
        let c1 = table_cell(Bench::Ft, Class::C, 1, 1).unwrap();
        assert_eq!(c1.baseline(), None);
        let c1r4 = table_cell(Bench::Ft, Class::C, 1, 4).unwrap();
        assert_eq!(c1r4.baseline(), Some(135.96));
    }

    #[test]
    fn bt_rows_are_square_rank_counts() {
        for &nodes in Bench::Bt.node_counts() {
            for rpn in [1u32, 4] {
                let ranks = nodes * rpn;
                let sq = (ranks as f64).sqrt() as u32;
                assert_eq!(sq * sq, ranks, "BT rank count {ranks} not square");
            }
        }
    }

    #[test]
    fn ep_ft_rank_counts_are_powers_of_two() {
        for bench in [Bench::Ep, Bench::Ft] {
            for &nodes in bench.node_counts() {
                for rpn in [1u32, 4] {
                    assert!((nodes * rpn).is_power_of_two());
                }
            }
        }
    }

    #[test]
    fn missing_rows_return_none() {
        assert!(table_cell(Bench::Bt, Class::A, 2, 1).is_none());
        assert!(htt_cell(Bench::Bt, Class::A, 1).is_none());
        assert!(htt_cell(Bench::Ep, Class::A, 3).is_none());
    }

    #[test]
    fn long_smi_is_always_slower_than_baseline() {
        for bench in [Bench::Ep, Bench::Bt, Bench::Ft] {
            for class in Class::PAPER {
                for &nodes in bench.node_counts() {
                    for rpn in [1u32, 4] {
                        let cell = table_cell(bench, class, nodes, rpn).unwrap();
                        if let (Some(base), Some(long)) = (cell.smm[0], cell.smm[2]) {
                            assert!(
                                long > base,
                                "{} class {} n{nodes} r{rpn}: {long} <= {base}",
                                bench.name(),
                                class.letter()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn htt_baselines_match_table_2_and_3() {
        // Tables 4/5's ht=0 columns restate Tables 2/3's 4-rank block.
        for class in Class::PAPER {
            for &nodes in Bench::Ep.node_counts() {
                let t2 = table_cell(Bench::Ep, class, nodes, 4).unwrap();
                let t4 = htt_cell(Bench::Ep, class, nodes).unwrap();
                assert_eq!(t2.smm[0].unwrap(), t4.smm_ht[0][0]);
                assert_eq!(t2.smm[2].unwrap(), t4.smm_ht[2][0]);
            }
        }
    }

    #[test]
    fn serial_baselines_match_tables() {
        assert_eq!(serial_seconds(Bench::Bt, Class::C), 1585.75);
        assert_eq!(
            serial_seconds(Bench::Ep, Class::A),
            table_cell(Bench::Ep, Class::A, 1, 1).unwrap().baseline().unwrap()
        );
    }

    #[test]
    fn ep_rate_is_class_consistent() {
        // EP cost per pair should be nearly identical across classes
        // (same inner loop): ~86 ns/pair on the paper's E5520.
        let rate_a = serial_seconds(Bench::Ep, Class::A) / (1u64 << 28) as f64;
        let rate_b = serial_seconds(Bench::Ep, Class::B) / (1u64 << 30) as f64;
        let rate_c = serial_seconds(Bench::Ep, Class::C) / (1u64 << 32) as f64;
        assert!((rate_a / rate_b - 1.0).abs() < 0.01);
        assert!((rate_b / rate_c - 1.0).abs() < 0.01);
    }
}
