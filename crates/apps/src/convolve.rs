//! The Convolve application kernel (§IV.B), implemented for real.
//!
//! "Given an NxN matrix P and an MxM matrix Q with M<N and M odd,
//! convolving Q over P … involves, for each `R[i,j]`, superimposing Q over
//! P, centered at `P[i,j]`, multiplying the superimposed elements, and
//! summing the products. We parallelized this operation by splitting R up
//! into blocks of a configurable size, k, and spawning a thread for each.
//! … Each thread writes to thread-local memory, so there is no overhead
//! from locking."
//!
//! This module reproduces that design exactly: the image is zero-padded,
//! each k×k output block is computed by its own `std::thread` into
//! thread-local storage, and the blocks are assembled after the join
//! (outside any timed region, as in the paper). Arithmetic is integer
//! multiply-accumulate, matching "performing integer multiplications and
//! additions".

use std::thread;

/// A row-major integer image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Image {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Pixels, `rows * cols`, row-major.
    pub data: Vec<i64>,
}

impl Image {
    /// An all-zero image.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "empty image");
        Image { rows, cols, data: vec![0; rows * cols] }
    }

    /// Build from a generator function.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> i64) -> Self {
        let mut img = Image::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                img.data[r * cols + c] = f(r, c);
            }
        }
        img
    }

    /// Pixel accessor.
    pub fn at(&self, r: usize, c: usize) -> i64 {
        self.data[r * self.cols + c]
    }
}

/// The convolution kernel matrix: `m x m` with odd `m`.
#[derive(Clone, Debug)]
pub struct Kernel {
    /// Side length (odd).
    pub m: usize,
    /// Weights, row-major.
    pub w: Vec<i64>,
}

impl Kernel {
    /// Build from weights.
    pub fn new(m: usize, w: Vec<i64>) -> Self {
        assert!(m % 2 == 1, "kernel side must be odd, got {m}");
        assert_eq!(w.len(), m * m, "kernel weight count");
        Kernel { m, w }
    }

    /// The identity kernel (1 at the center).
    pub fn identity(m: usize) -> Self {
        let mut w = vec![0; m * m];
        w[(m / 2) * m + m / 2] = 1;
        Kernel::new(m, w)
    }

    /// A box kernel (all ones), an un-normalized blur.
    pub fn boxcar(m: usize) -> Self {
        Kernel::new(m, vec![1; m * m])
    }

    /// A discrete integer approximation of a Gaussian (binomial weights),
    /// the paper's "Gaussian filter over an image".
    pub fn gaussian(m: usize) -> Self {
        // Binomial row: C(m-1, k).
        let mut row = vec![1i64; m];
        for k in 1..m {
            row[k] = row[k - 1] * (m - k) as i64 / k as i64;
        }
        let mut w = vec![0; m * m];
        for i in 0..m {
            for j in 0..m {
                w[i * m + j] = row[i] * row[j];
            }
        }
        Kernel::new(m, w)
    }
}

/// Zero-padded convolution of one output pixel.
fn conv_at(img: &Image, ker: &Kernel, r: i64, c: i64) -> i64 {
    let half = (ker.m / 2) as i64;
    let mut acc = 0i64;
    for u in 0..ker.m as i64 {
        for v in 0..ker.m as i64 {
            let rr = r + u - half;
            let cc = c + v - half;
            if rr >= 0 && rr < img.rows as i64 && cc >= 0 && cc < img.cols as i64 {
                acc += img.at(rr as usize, cc as usize) * ker.w[(u * ker.m as i64 + v) as usize];
            }
        }
    }
    acc
}

/// Reference single-threaded convolution (the correctness oracle).
pub fn convolve_serial(img: &Image, ker: &Kernel) -> Image {
    let mut out = Image::zeros(img.rows, img.cols);
    for r in 0..img.rows {
        for c in 0..img.cols {
            out.data[r * img.cols + c] = conv_at(img, ker, r as i64, c as i64);
        }
    }
    out
}

/// Parallel convolution: the output is split into `block x block` tiles,
/// each computed by its own thread into thread-local memory; at most
/// `max_threads` tiles are in flight at once (the paper limits this
/// to 24).
pub fn convolve_blocked(img: &Image, ker: &Kernel, block: usize, max_threads: usize) -> Image {
    assert!(block > 0, "zero block size");
    assert!(max_threads > 0, "need at least one thread");
    let rows = img.rows;
    let cols = img.cols;
    // Tile origins.
    let tiles: Vec<(usize, usize)> = (0..rows)
        .step_by(block)
        .flat_map(|r| (0..cols).step_by(block).map(move |c| (r, c)))
        .collect();
    let mut out = Image::zeros(rows, cols);
    for wave in tiles.chunks(max_threads) {
        let results: Vec<((usize, usize), Vec<i64>)> = thread::scope(|s| {
            let handles: Vec<_> = wave
                .iter()
                .map(|&(r0, c0)| {
                    s.spawn(move || {
                        let rl = (r0 + block).min(rows);
                        let cl = (c0 + block).min(cols);
                        // Thread-local output tile.
                        let mut tile = Vec::with_capacity((rl - r0) * (cl - c0));
                        for r in r0..rl {
                            for c in c0..cl {
                                tile.push(conv_at(img, ker, r as i64, c as i64));
                            }
                        }
                        ((r0, c0), tile)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
                .collect()
        });
        // Assemble (outside the conceptual timed region).
        for ((r0, c0), tile) in results {
            let rl = (r0 + block).min(rows);
            let cl = (c0 + block).min(cols);
            let mut it = tile.into_iter();
            #[expect(
                clippy::expect_used,
                reason = "each tile is built with exactly (rl-r0)*(cl-c0) entries above"
            )]
            for r in r0..rl {
                for c in c0..cl {
                    out.data[r * cols + c] = it.next().expect("tile size");
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimRng;

    fn random_image(rng: &mut SimRng, rows: usize, cols: usize) -> Image {
        Image::from_fn(rows, cols, |_, _| rng.range_u64(0, 255) as i64 - 128)
    }

    #[test]
    fn identity_kernel_preserves_interior() {
        let mut rng = SimRng::new(1);
        let img = random_image(&mut rng, 16, 16);
        let out = convolve_serial(&img, &Kernel::identity(3));
        assert_eq!(out, img, "identity kernel must reproduce the image (zero padding)");
    }

    #[test]
    fn boxcar_on_constant_image() {
        let img = Image::from_fn(10, 10, |_, _| 2);
        let out = convolve_serial(&img, &Kernel::boxcar(3));
        // Interior pixels: 9 neighbours x 2 = 18; corner: 4 x 2 = 8.
        assert_eq!(out.at(5, 5), 18);
        assert_eq!(out.at(0, 0), 8);
        assert_eq!(out.at(0, 5), 12); // edge: 6 in-bounds neighbours
    }

    #[test]
    fn blocked_matches_serial() {
        let mut rng = SimRng::new(2);
        let img = random_image(&mut rng, 33, 29); // deliberately non-divisible
        let ker = Kernel::gaussian(5);
        let reference = convolve_serial(&img, &ker);
        for block in [1usize, 4, 7, 16, 64] {
            let out = convolve_blocked(&img, &ker, block, 8);
            assert_eq!(out, reference, "block={block}");
        }
    }

    #[test]
    fn thread_limit_does_not_change_result() {
        let mut rng = SimRng::new(3);
        let img = random_image(&mut rng, 24, 24);
        let ker = Kernel::boxcar(3);
        let reference = convolve_serial(&img, &ker);
        for max_threads in [1usize, 2, 24] {
            assert_eq!(convolve_blocked(&img, &ker, 4, max_threads), reference);
        }
    }

    #[test]
    fn gaussian_weights_are_binomial() {
        let k = Kernel::gaussian(3);
        assert_eq!(k.w, vec![1, 2, 1, 2, 4, 2, 1, 2, 1]);
        let k5 = Kernel::gaussian(5);
        assert_eq!(k5.w[2 * 5 + 2], 36); // center = C(4,2)^2
    }

    #[test]
    fn convolution_is_linear_in_the_image() {
        let mut rng = SimRng::new(4);
        let a = random_image(&mut rng, 12, 12);
        let b = random_image(&mut rng, 12, 12);
        let sum = Image::from_fn(12, 12, |r, c| a.at(r, c) + b.at(r, c));
        let ker = Kernel::gaussian(3);
        let ca = convolve_serial(&a, &ker);
        let cb = convolve_serial(&b, &ker);
        let csum = convolve_serial(&sum, &ker);
        for i in 0..csum.data.len() {
            assert_eq!(csum.data[i], ca.data[i] + cb.data[i]);
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_kernel_rejected() {
        let _ = Kernel::new(4, vec![0; 16]);
    }
}
