//! NAS problem classes.

/// The NPB problem classes the paper measures (§III.C).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, jsonio::ToJson)]
pub enum Class {
    /// Sample size. Not in the paper's tables and no study runs it; it
    /// stays because `perfbench/tracer` parses the letter.
    S,
    /// Workstation size. Not in the paper's tables and no study runs it;
    /// kept for the same reason as [`Class::S`].
    W,
    /// Class A.
    A,
    /// Class B.
    B,
    /// Class C.
    C,
}

impl Class {
    /// The three classes the paper reports.
    pub const PAPER: [Class; 3] = [Class::A, Class::B, Class::C];

    /// Display letter.
    pub fn letter(&self) -> char {
        match self {
            Class::S => 'S',
            Class::W => 'W',
            Class::A => 'A',
            Class::B => 'B',
            Class::C => 'C',
        }
    }

    /// EP: log2 of the number of random-number *pairs*.
    pub fn ep_log_pairs(&self) -> u32 {
        match self {
            Class::S => 24,
            Class::W => 25,
            Class::A => 28,
            Class::B => 30,
            Class::C => 32,
        }
    }

    /// BT: cubic grid side and iteration count.
    pub fn bt_grid(&self) -> (u32, u32) {
        match self {
            Class::S => (12, 60),
            Class::W => (24, 200),
            Class::A => (64, 200),
            Class::B => (102, 200),
            Class::C => (162, 200),
        }
    }

    /// FT: grid dimensions and iteration count.
    pub fn ft_grid(&self) -> ((u32, u32, u32), u32) {
        match self {
            Class::S => ((64, 64, 64), 6),
            Class::W => ((128, 128, 32), 6),
            Class::A => ((256, 256, 128), 6),
            Class::B => ((512, 256, 256), 20),
            Class::C => ((512, 512, 512), 20),
        }
    }

    /// Total FT grid points.
    pub fn ft_points(&self) -> u64 {
        let ((x, y, z), _) = self.ft_grid();
        x as u64 * y as u64 * z as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_monotone() {
        let order = [Class::S, Class::W, Class::A, Class::B, Class::C];
        for w in order.windows(2) {
            assert!(w[0].ep_log_pairs() <= w[1].ep_log_pairs());
            assert!(w[0].bt_grid().0 <= w[1].bt_grid().0);
            assert!(w[0].ft_points() <= w[1].ft_points());
        }
    }

    #[test]
    fn paper_classes() {
        assert_eq!(Class::PAPER.map(|c| c.letter()), ['A', 'B', 'C']);
    }

    #[test]
    fn ft_points_class_a() {
        assert_eq!(Class::A.ft_points(), 256 * 256 * 128);
    }
}
