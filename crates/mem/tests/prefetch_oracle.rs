//! Differential test of [`StreamPrefetcher`]'s indexed stream search
//! against the linear scan it replaced, kept here as the reference.
//!
//! The scan visits every stream twice per access: once for the near
//! stream (the first within 8 lines whose stride matches, else the last
//! within 8 lines) and once for the LRU victim. The indexed version must
//! pick the same stream every time, so the two are driven side by side
//! over unit, negative and odd strides, interleaved walkers, repeated
//! lines, random lines and near misses, at stream counts below, at and
//! above the hierarchy's 64, with `reset` mid-run. Every access's
//! candidates must match.

use orinoco_mem::StreamPrefetcher;
use orinoco_util::Rng;

/// One tracked stream of the reference.
#[derive(Clone, Copy)]
struct Stream {
    last_line: u64,
    stride: i64,
    confidence: u8,
    last_used: u64,
    valid: bool,
}

const EMPTY: Stream = Stream {
    last_line: 0,
    stride: 0,
    confidence: 0,
    last_used: 0,
    valid: false,
};

/// The reference: two linear scans of the stream table per access.
struct ScanPrefetcher {
    streams: Vec<Stream>,
    depth: u64,
    tick: u64,
}

impl ScanPrefetcher {
    fn new(streams: usize, depth: u64) -> Self {
        Self {
            streams: vec![EMPTY; streams],
            depth,
            tick: 0,
        }
    }

    fn reset(&mut self) {
        self.streams.fill(EMPTY);
        self.tick = 0;
    }

    fn on_access_into(&mut self, addr: u64, out: &mut Vec<u64>) {
        out.clear();
        self.tick += 1;
        let line = addr / 64;
        let mut best: Option<usize> = None;
        for (i, s) in self.streams.iter().enumerate() {
            if !s.valid {
                continue;
            }
            let delta = line as i64 - s.last_line as i64;
            if delta != 0 && delta.abs() <= 8 {
                best = Some(i);
                if delta == s.stride {
                    break;
                }
            }
        }
        match best {
            Some(i) => {
                let s = &mut self.streams[i];
                let delta = line as i64 - s.last_line as i64;
                if delta == s.stride {
                    s.confidence = (s.confidence + 1).min(3);
                } else {
                    s.stride = delta;
                    s.confidence = 1;
                }
                s.last_line = line;
                s.last_used = self.tick;
                if s.confidence >= 2 && s.stride != 0 {
                    let stride = s.stride;
                    out.extend(
                        (1..=self.depth)
                            .map(|k| (line as i64 + stride * k as i64).max(0) as u64 * 64),
                    );
                }
            }
            None => {
                let tick = self.tick;
                let victim = self
                    .streams
                    .iter_mut()
                    .min_by_key(|s| if s.valid { s.last_used } else { 0 })
                    .expect("streams > 0");
                *victim = Stream {
                    last_line: line,
                    stride: 0,
                    confidence: 0,
                    last_used: tick,
                    valid: true,
                };
            }
        }
    }
}

/// A memory walker: the next address it touches is `line + stride`.
struct Walker {
    line: u64,
    stride: i64,
}

/// Drives both prefetchers over `accesses` mixed accesses and returns
/// how many candidates they emitted.
fn drive(seed: u64, streams: usize, depth: u64, accesses: u64, span: u64) -> u64 {
    let mut rng = Rng::seed_from_u64(seed);
    let mut dut = StreamPrefetcher::new(streams, depth);
    let mut oracle = ScanPrefetcher::new(streams, depth);
    // Up to half again as many walkers as streams: enough to thrash the
    // table sometimes, few enough that streams train.
    let mut walkers: Vec<Walker> = (0..rng.gen_range(1..streams + streams / 2 + 2))
        .map(|_| Walker {
            line: rng.gen_range(0..span),
            stride: rng.gen_range(-9..10i64),
        })
        .collect();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let mut last = 0u64;
    let mut candidates = 0u64;
    for n in 0..accesses {
        if n % 50_000 == 25_000 {
            dut.reset();
            oracle.reset();
        }
        let line = match rng.gen_range(0..100u32) {
            // The dominant case: some walker takes its next step.
            0..=54 => {
                let w = rng.gen_range(0..walkers.len());
                let w = &mut walkers[w];
                w.line = w.line.saturating_add_signed(w.stride) % span;
                w.line
            }
            // The same line again (delta 0 never trains a stream).
            55..=64 => last,
            // A random line anywhere.
            65..=79 => rng.gen_range(0..span),
            // A near miss around a walker: retrains, and stacks several
            // streams on one line.
            80..=89 => {
                let w = &walkers[rng.gen_range(0..walkers.len())];
                w.line.saturating_add_signed(rng.gen_range(-12..13i64))
            }
            // A walker changes stride or jumps.
            90..=94 => {
                let w = rng.gen_range(0..walkers.len());
                walkers[w].stride = rng.gen_range(-9..10i64);
                walkers[w].line
            }
            _ => {
                let w = rng.gen_range(0..walkers.len());
                walkers[w].line = rng.gen_range(0..span);
                walkers[w].line
            }
        };
        last = line;
        let addr = line * 64 + rng.gen_range(0..64u64);
        dut.on_access_into(addr, &mut got);
        oracle.on_access_into(addr, &mut want);
        assert_eq!(
            got, want,
            "seed {seed}, {streams} streams, depth {depth}: access {n} to {addr:#x}"
        );
        candidates += got.len() as u64;
    }
    candidates
}

#[test]
fn indexed_search_matches_the_linear_scan() {
    for (i, streams) in [1usize, 7, 64, 65, 200].into_iter().enumerate() {
        let seed = 0x5EED_0000 + i as u64;
        // A span of a few thousand lines keeps many streams near each
        // other; a wide one makes most accesses allocate.
        let tight = drive(seed, streams, 4, 300_000, 4_096);
        let wide = drive(seed ^ 0xFF, streams, 1, 100_000, 1 << 40);
        // These seeds emit 56k–399k (tight) and 4.8k–24k (wide)
        // candidates: the floors check that streams trained and issued.
        assert!(tight > 40_000, "{streams} streams: only {tight} candidates");
        assert!(wide > 4_000, "{streams} streams: only {wide} candidates");
    }
}

#[test]
fn lines_near_zero_and_the_top_of_memory_match() {
    // Negative strides clamp prefetch lines at 0; lines near the top of
    // the address space must neither overflow the window nor wrap.
    // 24 steps plus 8 lines of prefetch stay below `u64::MAX / 64`.
    let top = u64::MAX / 64;
    for (base, stride) in [(40u64, -3i64), (3, -1), (top - 400, 7), (top - 100, 1)] {
        let mut dut = StreamPrefetcher::new(4, 8);
        let mut oracle = ScanPrefetcher::new(4, 8);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut line = base;
        for _ in 0..24 {
            dut.on_access_into(line * 64, &mut got);
            oracle.on_access_into(line * 64, &mut want);
            assert_eq!(got, want, "line {line}");
            let Some(next) = line.checked_add_signed(stride) else {
                break;
            };
            line = next;
        }
    }
}
