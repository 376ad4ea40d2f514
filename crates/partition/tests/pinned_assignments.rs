//! Pins the multilevel partitioner's output bit for bit.
//!
//! The digests below were recorded from `metis_like` and `best_of` on
//! ~20k-vertex graphs built with the IT, OPR and FDS proxies' generator
//! parameters (see `hongtu-datasets`' registry), at 2, 4, 16 and 64 parts.
//! Speed work on the partitioner must leave every assignment unchanged:
//! the cut feeds every simulated metric downstream, so any drift here is
//! a behaviour change, not an optimisation.

use hongtu_graph::generators::{self, RmatParams};
use hongtu_graph::Graph;
use hongtu_partition::multilevel::{best_of, metis_like};
use hongtu_partition::Assignment;
use hongtu_tensor::SeededRng;

const PARTS: [usize; 4] = [2, 4, 16, 64];

/// FNV-1a over the partition labels.
fn digest(a: &Assignment) -> u64 {
    a.partition_of
        .iter()
        .flat_map(|p| p.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

fn proxies() -> [(&'static str, Graph); 3] {
    let rng = SeededRng::new(2023);
    [
        (
            "it",
            generators::web_hybrid(20_000, 12.0, 0.93, 60.0, &mut rng.fork(11)),
        ),
        (
            "opr",
            generators::web_hybrid(20_000, 8.0, 0.82, 2500.0, &mut rng.fork(12)),
        ),
        (
            "fds",
            generators::rmat(14, 350_000, RmatParams::social(), &mut rng.fork(13)),
        ),
    ]
}

/// `(proxy, parts, metis_like digest, best_of digest)`.
const PINNED: [(&str, usize, u64, u64); 12] = [
    ("it", 2, 0x0ae77365f076a125, 0x33c36a397358f0a5),
    ("it", 4, 0xb04269403e238525, 0xb2e3e0dbaa2c89a5),
    ("it", 16, 0x67b5841f1e0224ee, 0xb0904817386f03a5),
    ("it", 64, 0xd9c62ecd0f7b1a12, 0xb7d4ce971769eda5),
    ("opr", 2, 0xf4c5392f754a62b5, 0x33c36a397358f0a5),
    ("opr", 4, 0x11d4cbee06f85b75, 0xb2e3e0dbaa2c89a5),
    ("opr", 16, 0xfa50eafd60858435, 0xfa50eafd60858435),
    ("opr", 64, 0x64574fe7b8d2747a, 0x64574fe7b8d2747a),
    ("fds", 2, 0x7fe886dc56aacb05, 0x7fe886dc56aacb05),
    ("fds", 4, 0x59884d9616aa1534, 0x59884d9616aa1534),
    ("fds", 16, 0x3e510deec7c55e1e, 0x3e510deec7c55e1e),
    ("fds", 64, 0xfb340a709d2f192c, 0xfb340a709d2f192c),
];

#[test]
fn multilevel_assignments_match_pinned_digests() {
    let mut got = Vec::new();
    for (name, g) in proxies() {
        for parts in PARTS {
            let ml = digest(&metis_like(&g, parts, 1));
            let bo = digest(&best_of(&g, parts, 1));
            got.push((name, parts, ml, bo));
        }
    }
    assert_eq!(got, PINNED);
}
