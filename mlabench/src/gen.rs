//! Seeded input generators owned by the benchmark.
//!
//! Every workload's inputs come from here and from `--seed` alone, so a
//! change to the library's own generators (`mla_adversary`) can never
//! alter what the benchmark measures. The fingerprint of each input is
//! recorded per seed in `spec.json` and checked on every run.

use mla_graph::{RevealEvent, Topology};
use mla_permutation::Node;

/// SplitMix64: a small, fully specified PRNG, so inputs do not depend on
/// any library's random number generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`), by 128-bit multiply-shift.
    pub fn below(&mut self, bound: usize) -> usize {
        ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
    }

    /// An independent stream for a sub-input.
    pub fn fork(&mut self) -> Rng {
        Rng(self.next_u64())
    }
}

fn event(a: u32, b: u32) -> RevealEvent {
    RevealEvent::new(Node::new(a as usize), Node::new(b as usize))
}

/// Uniformly random merges of `n` singletons down to one component: each
/// step joins two distinct components picked uniformly, at random members
/// (cliques) or at random endpoints (lines).
pub fn uniform_events(topology: Topology, n: usize, rng: &mut Rng) -> Vec<RevealEvent> {
    let mut events = Vec::with_capacity(n.saturating_sub(1));
    match topology {
        Topology::Cliques => {
            let mut comps: Vec<Vec<u32>> = (0..n as u32).map(|v| vec![v]).collect();
            while comps.len() > 1 {
                let (i, j) = distinct_pair(comps.len(), rng);
                let a = comps[i][rng.below(comps[i].len())];
                let b = comps[j][rng.below(comps[j].len())];
                events.push(event(a, b));
                let mut first = std::mem::take(&mut comps[i]);
                let mut second = std::mem::take(&mut comps[j]);
                if first.len() < second.len() {
                    std::mem::swap(&mut first, &mut second);
                }
                first.extend_from_slice(&second);
                comps[i] = first;
                comps.swap_remove(j);
            }
        }
        Topology::Lines => {
            // A path is its two endpoints; joining at one end of each
            // leaves the two far ends as the merged path's endpoints.
            let mut paths: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, v)).collect();
            while paths.len() > 1 {
                let (i, j) = distinct_pair(paths.len(), rng);
                let pick = |(front, back): (u32, u32), rng: &mut Rng| {
                    if rng.below(2) == 0 {
                        (front, back)
                    } else {
                        (back, front)
                    }
                };
                let (a, far_a) = pick(paths[i], rng);
                let (b, far_b) = pick(paths[j], rng);
                events.push(event(a, b));
                paths[i] = (far_a, far_b);
                paths.swap_remove(j);
            }
        }
    }
    events
}

fn distinct_pair(len: usize, rng: &mut Rng) -> (usize, usize) {
    let i = rng.below(len);
    let mut j = rng.below(len);
    while j == i {
        j = rng.below(len);
    }
    (i, j)
}

/// Stride of the whale chain; prime, so any `n` it does not divide walks
/// every node.
pub const WHALE_STRIDE: u64 = 7919;

/// The scattered whale chain `p(i) = 7919·(i + offset) mod n`, merging
/// `p(i−1)`–`p(i)`: one component absorbs every other node, one
/// singleton at a time, from positions spread over the whole arrangement.
pub fn whale_events(n: usize, offset: usize) -> Vec<RevealEvent> {
    assert!(
        !(n as u64).is_multiple_of(WHALE_STRIDE),
        "n must be coprime to the stride"
    );
    let p = |i: usize| ((WHALE_STRIDE * (i + offset) as u64) % n as u64) as u32;
    (1..n).map(|i| event(p(i - 1), p(i))).collect()
}

/// FNV-1a over the event endpoints of every list, in order, then over
/// `extra` (further inputs: seeds, rendered requests).
pub fn fingerprint(lists: &[&[RevealEvent]], extra: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for list in lists {
        for ev in list.iter() {
            feed(&(ev.a().index() as u32).to_le_bytes());
            feed(&(ev.b().index() as u32).to_le_bytes());
        }
    }
    feed(extra);
    hash
}

/// Tenant sizes proportional to `1/k` (Zipf, exponent 1), each at least
/// 2 nodes, summing to exactly `total`.
pub fn zipf_sizes(tenants: usize, total: usize) -> Vec<usize> {
    let harmonic: f64 = (1..=tenants).map(|k| 1.0 / k as f64).sum();
    let mut sizes: Vec<usize> = (1..=tenants)
        .map(|k| ((total as f64 / (k as f64 * harmonic)).round() as usize).max(2))
        .collect();
    let sum: usize = sizes.iter().sum();
    sizes[0] = sizes[0] + total - sum;
    sizes
}

/// One tenant of the serving workload: its session parameters and the
/// full reveal stream it will receive.
#[derive(Debug, Clone)]
pub struct Tenant {
    pub name: String,
    pub topology: Topology,
    pub n: usize,
    pub check_feasibility: bool,
    pub seed: u64,
    pub events: Vec<RevealEvent>,
}

/// 64 tenants with Zipf(1) sizes totalling `total` nodes. Topologies
/// alternate, and within each topology every other tenant checks
/// feasibility.
pub fn tenants(count: usize, total: usize, rng: &mut Rng) -> Vec<Tenant> {
    zipf_sizes(count, total)
        .into_iter()
        .enumerate()
        .map(|(k, n)| {
            let topology = if k % 2 == 0 {
                Topology::Cliques
            } else {
                Topology::Lines
            };
            let mut stream = rng.fork();
            Tenant {
                name: format!("t{k:02}"),
                topology,
                n,
                check_feasibility: (k / 2) % 2 == 0,
                seed: stream.next_u64(),
                events: uniform_events(topology, n, &mut stream),
            }
        })
        .collect()
}

/// One request of the serving frame script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A `reveal` frame: event `index` of `tenant`.
    Reveal { tenant: usize, index: usize },
    /// A `reveals` frame: events `start..end` of `tenant`.
    Reveals {
        tenant: usize,
        start: usize,
        end: usize,
    },
    /// A `position` read.
    Position { tenant: usize, node: usize },
    /// A `cost` read.
    Cost { tenant: usize },
    /// A `checkpoint` to a file followed by a `restore` from it.
    CheckpointRestore,
}

/// Longest `reveals` frame.
pub const MAX_FRAME_EVENTS: usize = 256;
/// Checkpoint/restore pairs per script, at evenly spaced points.
pub const CHECKPOINTS: usize = 8;

/// The closed-loop frame script over `tenants`: each write goes to a
/// tenant picked in proportion to its remaining events; 30% of writes
/// are single `reveal` frames and the rest `reveals` frames of 2 to 256
/// events; every other write (on average) is followed by a `position`
/// or `cost` read; and a checkpoint/restore pair falls after each ninth
/// of all events.
pub fn frame_script(tenants: &[Tenant], rng: &mut Rng) -> Vec<Frame> {
    let mut cursor = vec![0usize; tenants.len()];
    let total: usize = tenants.iter().map(|t| t.events.len()).sum();
    let mut remaining = total;
    let mut checkpoints_done = 0;
    let mut script = Vec::new();
    while remaining > 0 {
        let mut pick = rng.below(remaining);
        let tenant = (0..tenants.len())
            .find(|&t| {
                let left = tenants[t].events.len() - cursor[t];
                if pick < left {
                    true
                } else {
                    pick -= left;
                    false
                }
            })
            .expect("pick is below the remaining total");
        let left = tenants[tenant].events.len() - cursor[tenant];
        let len = if rng.below(10) < 3 {
            1
        } else {
            (2 + rng.below(MAX_FRAME_EVENTS - 1)).min(left)
        };
        let start = cursor[tenant];
        script.push(if len == 1 {
            Frame::Reveal {
                tenant,
                index: start,
            }
        } else {
            Frame::Reveals {
                tenant,
                start,
                end: start + len,
            }
        });
        cursor[tenant] += len;
        remaining -= len;
        if rng.below(2) == 0 {
            script.push(if rng.below(2) == 0 {
                Frame::Position {
                    tenant,
                    node: rng.below(tenants[tenant].n),
                }
            } else {
                Frame::Cost { tenant }
            });
        }
        while checkpoints_done < CHECKPOINTS
            && total - remaining >= (checkpoints_done + 1) * total / (CHECKPOINTS + 1)
        {
            script.push(Frame::CheckpointRestore);
            checkpoints_done += 1;
        }
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_graph::GraphState;

    fn final_components(topology: Topology, n: usize, events: &[RevealEvent]) -> usize {
        let mut state = GraphState::new(topology, n);
        for &ev in events {
            state.apply(ev).expect("generated events are valid");
        }
        state.component_count()
    }

    #[test]
    fn uniform_ends_with_one_component_per_topology() {
        for topology in [Topology::Cliques, Topology::Lines] {
            for n in [1, 2, 3, 17, 500] {
                let events = uniform_events(topology, n, &mut Rng::new(n as u64));
                assert_eq!(events.len(), n - 1);
                assert_eq!(final_components(topology, n, &events), 1);
            }
        }
    }

    #[test]
    fn whale_is_one_component_grown_from_singletons() {
        for (n, offset) in [(10, 0), (1001, 3), (40_003, 17)] {
            let events = whale_events(n, offset);
            for topology in [Topology::Cliques, Topology::Lines] {
                assert_eq!(final_components(topology, n, &events), 1);
            }
            // Each merge brings in a node never seen before.
            let mut seen = vec![false; n];
            seen[events[0].a().index()] = true;
            for ev in &events {
                assert!(seen[ev.a().index()] && !seen[ev.b().index()]);
                seen[ev.b().index()] = true;
            }
        }
    }

    #[test]
    fn generators_repeat_per_seed() {
        let a = uniform_events(Topology::Lines, 300, &mut Rng::new(5));
        let b = uniform_events(Topology::Lines, 300, &mut Rng::new(5));
        let c = uniform_events(Topology::Lines, 300, &mut Rng::new(6));
        assert_eq!(fingerprint(&[&a], &[]), fingerprint(&[&b], &[]));
        assert_ne!(fingerprint(&[&a], &[]), fingerprint(&[&c], &[]));
        assert_ne!(fingerprint(&[&a], &[]), fingerprint(&[&a], &[1]));
    }

    #[test]
    fn zipf_sizes_sum_to_total_and_decrease() {
        let sizes = zipf_sizes(64, 1 << 18);
        assert_eq!(sizes.iter().sum::<usize>(), 1 << 18);
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
        assert!(sizes[63] >= 2);
    }

    #[test]
    fn script_covers_every_event_once_in_order() {
        let tenants = tenants(64, 20_000, &mut Rng::new(9));
        let script = frame_script(&tenants, &mut Rng::new(10));
        let mut next = vec![0usize; tenants.len()];
        let (mut checkpoints, mut queries) = (0, 0);
        for frame in &script {
            match *frame {
                Frame::Reveal { tenant, index } => {
                    assert_eq!(index, next[tenant]);
                    next[tenant] += 1;
                }
                Frame::Reveals { tenant, start, end } => {
                    assert_eq!(start, next[tenant]);
                    assert!(end - start >= 2 && end - start <= MAX_FRAME_EVENTS);
                    next[tenant] = end;
                }
                Frame::Position { tenant, node } => {
                    assert!(node < tenants[tenant].n);
                    queries += 1;
                }
                Frame::Cost { .. } => queries += 1,
                Frame::CheckpointRestore => checkpoints += 1,
            }
        }
        for (t, tenant) in tenants.iter().enumerate() {
            assert_eq!(next[t], tenant.events.len(), "tenant {t} fully served");
        }
        assert_eq!(checkpoints, CHECKPOINTS);
        assert!(queries > 0);
    }
}
