//! Pins the tree a build produces. For fixed inputs each case records a
//! hash of the encoded skeleton (every node's point, level, exact
//! parent distance, child links and duplicates), a hash of the nets
//! read off two levels, and the number of distance evaluations the
//! build makes. Each case also checks that a prefix build grown by
//! `insert` encodes to the same bytes as the full build. A construction
//! change that moves any of these builds a different tree, and so a
//! different §3.2 net and different labels.

use mdbscan_covertree::{CoverTree, NetExtraction};
use mdbscan_metric::{BatchMetric, CountingMetric, Euclidean, Levenshtein, VectorBlock};
use mdbscan_persist::ByteWriter;

/// What a case pins: skeleton hash, one net hash per level, evaluations.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    skeleton: u64,
    nets: [u64; 2],
    evals: u64,
}

/// FNV-1a, 64-bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn net_hash(net: &NetExtraction) -> u64 {
    let mut bytes = Vec::new();
    for &c in &net.centers {
        bytes.extend_from_slice(&(c as u64).to_le_bytes());
    }
    for &a in &net.assignment {
        bytes.extend_from_slice(&a.to_le_bytes());
    }
    bytes.extend_from_slice(&net.cover_radius.to_bits().to_le_bytes());
    bytes.extend_from_slice(&net.separation.to_bits().to_le_bytes());
    fnv(&bytes)
}

fn encoded<P, M: BatchMetric<P>>(tree: CoverTree<'_, P, M>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    tree.into_skeleton().encode(&mut w);
    w.into_bytes()
}

/// Builds over `points`, pins the result, and checks that growing a
/// prefix of a third of the points by insertion gives the same bytes.
fn pin<P, M: BatchMetric<P>>(points: &[P], metric: M, levels: [i32; 2]) -> Pin {
    let counting = CountingMetric::new(metric);
    let tree = CoverTree::build(points, &counting);
    let evals = counting.count();
    let nets = levels.map(|l| net_hash(&tree.extract_net(l)));
    let full = encoded(tree);

    let k = points.len() / 3;
    let mut grown = CoverTree::from_indices(points, &counting, 0..k);
    for i in k..points.len() {
        grown.insert(i);
    }
    assert!(encoded(grown) == full, "prefix grown by insert differs");
    Pin {
        skeleton: fnv(&full),
        nets,
        evals,
    }
}

/// SplitMix64: a fixed, dependency-free stream of test inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Roughly normal (sum of four uniforms, centered, unit variance).
    fn gauss(&mut self) -> f64 {
        ((0..4).map(|_| self.unit()).sum::<f64>() - 2.0) * 3f64.sqrt()
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn blobs(rng: &mut Rng, dim: usize, centers: usize, per: usize, spread: f64) -> Vec<Vec<f64>> {
    let mids: Vec<Vec<f64>> = (0..centers)
        .map(|_| (0..dim).map(|_| rng.unit() * 40.0).collect())
        .collect();
    (0..centers * per)
        .map(|i| {
            let m = &mids[i % centers];
            m.iter().map(|&x| x + spread * rng.gauss()).collect()
        })
        .collect()
}

#[test]
fn blobs_with_far_outliers() {
    let mut rng = Rng(1);
    let mut pts = blobs(&mut rng, 2, 5, 400, 1.5);
    for _ in 0..25 {
        pts.push(vec![(rng.unit() - 0.5) * 2e4, (rng.unit() - 0.5) * 2e4]);
    }
    let got = pin(&pts, Euclidean, [-2, 1]);
    assert_eq!(
        got,
        Pin {
            skeleton: 0x799961280de8f3c1,
            nets: [0x1c9d1bcce9368a4e, 0x8969d8a79239f703],
            evals: 79_271,
        }
    );
}

#[test]
fn three_times_duplicated_set() {
    let mut rng = Rng(2);
    let base: Vec<Vec<f64>> = (0..600)
        .map(|_| vec![rng.unit() * 10.0, rng.unit() * 10.0])
        .collect();
    let pts: Vec<Vec<f64>> = base.iter().chain(&base).chain(&base).cloned().collect();
    let got = pin(&pts, Euclidean, [-3, 0]);
    // A level's batch also evaluates the children after a duplicate.
    assert_eq!(
        got,
        Pin {
            skeleton: 0xae87bd6a49c19a6c,
            nets: [0xa2721eba5b55c52b, 0xc8ea84e19b3c5a5c],
            evals: 64_233,
        }
    );
}

#[test]
fn integer_grid_with_tied_distances() {
    let mut rng = Rng(3);
    let mut pts: Vec<Vec<f64>> = (0..40 * 40)
        .map(|i| vec![(i % 40) as f64, (i / 40) as f64])
        .collect();
    for i in (1..pts.len()).rev() {
        pts.swap(i, rng.below(i + 1));
    }
    let got = pin(&pts, Euclidean, [0, 2]);
    assert_eq!(
        got,
        Pin {
            skeleton: 0x0adc2b8be1fe00e9,
            nets: [0xe522a372926d07c4, 0xbc7502d4b0108d70],
            evals: 61_310,
        }
    );
}

#[test]
fn vector_block_rows_at_d16() {
    let mut rng = Rng(4);
    let rows = blobs(&mut rng, 16, 6, 200, 2.0);
    let block = VectorBlock::<f64>::from_rows(&rows);
    let ids: Vec<u32> = (0..rows.len() as u32).collect();
    let got = pin(&ids, block, [1, 3]);
    assert_eq!(
        got,
        Pin {
            skeleton: 0xadadec16f70306b6,
            nets: [0x8fa721e089469591, 0xea5858619ef90211],
            evals: 124_563,
        }
    );
}

#[test]
fn levenshtein_strings() {
    let mut rng = Rng(5);
    let roots: Vec<String> = (0..12)
        .map(|_| {
            let len = 4 + rng.below(8);
            (0..len).map(|_| b"abcd"[rng.below(4)] as char).collect()
        })
        .collect();
    // Distinct words only: the duplicated set is the one case whose
    // evaluation count may depend on where the descent meets a copy.
    let mut seen = std::collections::HashSet::new();
    let words: Vec<String> = (0..600)
        .map(|_| {
            let mut w: Vec<char> = roots[rng.below(roots.len())].chars().collect();
            for _ in 0..rng.below(4) {
                let at = rng.below(w.len() + 1);
                match rng.below(3) {
                    0 if at < w.len() => {
                        w.remove(at);
                    }
                    1 if at < w.len() => w[at] = b"abcd"[rng.below(4)] as char,
                    _ => w.insert(at, b"abcd"[rng.below(4)] as char),
                }
            }
            w.into_iter().collect::<String>()
        })
        .filter(|w| seen.insert(w.clone()))
        .collect();
    let got = pin(&words, Levenshtein, [0, 1]);
    assert_eq!(
        got,
        Pin {
            skeleton: 0x551886026d2335c0,
            nets: [0x7351e15f44207556, 0x93cfde1fcc383f98],
            evals: 30_901,
        }
    );
}
