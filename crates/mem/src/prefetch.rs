//! A multi-stream stride prefetcher (the paper's "64 Streams" entry in
//! Table 1).
//!
//! Each stream tracks a region of memory, learns its dominant stride from
//! consecutive demand accesses and, once confident, emits prefetch
//! candidates a configurable depth ahead.

/// One tracked stream, linked into the recency list.
#[derive(Clone, Copy, Debug)]
struct Stream {
    last_line: u64,
    stride: i64,
    confidence: u8,
    /// The next less / more recently used valid stream ([`NONE`] at the
    /// ends of the list).
    older: usize,
    newer: usize,
}

/// End-of-list marker for the recency links.
const NONE: usize = usize::MAX;

/// How far (in lines) a demand access may sit from a stream's last line
/// and still train it.
const NEAR: u64 = 8;

/// Stride prefetcher with a fixed number of streams.
///
/// A demand access trains the *near* stream, one whose last line is
/// within 8 lines (but not the same line): the lowest-numbered near
/// stream whose stride the access continues, else the highest-numbered
/// near stream. With no near stream it claims the lowest free slot, or
/// else the least recently used stream. Slots are freed only by
/// [`StreamPrefetcher::reset`], so the valid streams are always the
/// prefix `0..valid`, and every access touches at most one stream, so
/// recency is a total order. A line-sorted index finds the near streams
/// and a recency list names the victim: no access scans every stream.
///
/// # Examples
///
/// ```
/// use orinoco_mem::StreamPrefetcher;
///
/// let mut pf = StreamPrefetcher::new(64, 4);
/// // A unit-stride walk trains a stream; after a few accesses the
/// // prefetcher emits the lines ahead.
/// assert!(pf.on_access(0 * 64).is_empty());
/// assert!(pf.on_access(1 * 64).is_empty());
/// let ahead = pf.on_access(2 * 64);
/// assert!(ahead.contains(&(3 * 64)));
/// ```
#[derive(Clone, Debug)]
pub struct StreamPrefetcher {
    /// One entry per slot; slots `valid..` are free and hold stale data.
    streams: Vec<Stream>,
    valid: usize,
    /// `(last_line, slot)` of the valid streams in `by_line[..valid]`,
    /// sorted; the tail is scratch. Like `streams` it has one entry per
    /// slot from the start, so training never allocates, in a clone too.
    by_line: Vec<(u64, usize)>,
    /// Least and most recently used valid streams.
    lru: usize,
    mru: usize,
    depth: u64,
    line_bytes: u64,
}

impl StreamPrefetcher {
    /// Creates a prefetcher with `streams` stream trackers issuing up to
    /// `depth` lines ahead.
    ///
    /// # Panics
    ///
    /// Panics if `streams` or `depth` is zero.
    #[must_use]
    pub fn new(streams: usize, depth: u64) -> Self {
        assert!(streams > 0 && depth > 0, "streams and depth must be positive");
        let free = Stream {
            last_line: 0,
            stride: 0,
            confidence: 0,
            older: NONE,
            newer: NONE,
        };
        Self {
            streams: vec![free; streams],
            valid: 0,
            by_line: vec![(0, 0); streams],
            lru: NONE,
            mru: NONE,
            depth,
            line_bytes: 64,
        }
    }

    /// Forgets every trained stream in place, keeping the stream-table
    /// allocation (core reset path).
    pub fn reset(&mut self) {
        self.valid = 0;
        self.lru = NONE;
        self.mru = NONE;
    }

    /// Observes a demand access to `addr` and returns the byte addresses to
    /// prefetch (possibly empty).
    pub fn on_access(&mut self, addr: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.on_access_into(addr, &mut out);
        out
    }

    /// Allocation-free counterpart of [`StreamPrefetcher::on_access`]:
    /// appends the prefetch candidates to the caller-owned `out` (cleared
    /// first), so the hot path can reuse one scratch buffer per memory
    /// system.
    pub fn on_access_into(&mut self, addr: u64, out: &mut Vec<u64>) {
        out.clear();
        let line = addr / self.line_bytes;
        let Some(i) = self.near_stream(line) else {
            self.allocate(line);
            return;
        };
        let s = &mut self.streams[i];
        let old_line = s.last_line;
        let delta = line as i64 - old_line as i64;
        if delta == s.stride {
            s.confidence = (s.confidence + 1).min(3);
        } else {
            s.stride = delta;
            s.confidence = 1;
        }
        s.last_line = line;
        if s.confidence >= 2 && s.stride != 0 {
            let stride = s.stride;
            out.extend(
                (1..=self.depth)
                    .map(|k| (line as i64 + stride * k as i64).max(0) as u64 * self.line_bytes),
            );
        }
        self.reindex(i, old_line, line);
        self.touch(i);
    }

    /// The stream `line` trains: among valid streams whose last line is
    /// within [`NEAR`] lines of `line` but not on it, the lowest slot
    /// whose stride `line` continues, else the highest slot.
    fn near_stream(&self, line: u64) -> Option<usize> {
        let index = &self.by_line[..self.valid];
        let from = index.partition_point(|&(l, _)| l < line.saturating_sub(NEAR));
        let mut exact: Option<usize> = None;
        let mut last: Option<usize> = None;
        for &(l, slot) in index[from..].iter().take_while(|&&(l, _)| l <= line + NEAR) {
            if l == line {
                continue;
            }
            if line as i64 - l as i64 == self.streams[slot].stride {
                exact = Some(exact.map_or(slot, |e| e.min(slot)));
            }
            last = Some(last.map_or(slot, |b| b.max(slot)));
        }
        exact.or(last)
    }

    /// Starts an untrained stream at `line` in the lowest free slot, or
    /// over the least recently used stream when none is free.
    fn allocate(&mut self, line: u64) {
        let fresh = |older, newer| Stream {
            last_line: line,
            stride: 0,
            confidence: 0,
            older,
            newer,
        };
        if self.valid < self.streams.len() {
            let i = self.valid;
            self.valid += 1;
            self.streams[i] = fresh(self.mru, NONE);
            let index = &mut self.by_line[..self.valid];
            let at = index[..i].partition_point(|&e| e < (line, i));
            index[at..].rotate_right(1);
            index[at] = (line, i);
            match self.mru {
                NONE => self.lru = i,
                m => self.streams[m].newer = i,
            }
            self.mru = i;
        } else {
            let i = self.lru;
            let s = self.streams[i];
            self.streams[i] = fresh(s.older, s.newer);
            self.reindex(i, s.last_line, line);
            self.touch(i);
        }
    }

    /// Moves slot `i`'s index entry from `old` to `new`, keeping
    /// `by_line[..valid]` sorted.
    fn reindex(&mut self, i: usize, old: u64, new: u64) {
        let index = &mut self.by_line[..self.valid];
        let from = index
            .binary_search(&(old, i))
            .expect("every valid stream is indexed under its last line");
        let key = (new, i);
        if key > (old, i) {
            let to = from + index[from + 1..].partition_point(|&e| e < key);
            index[from..=to].rotate_left(1);
            index[to] = key;
        } else {
            let to = index[..from].partition_point(|&e| e < key);
            index[to..=from].rotate_right(1);
            index[to] = key;
        }
    }

    /// Makes valid slot `i` the most recently used.
    fn touch(&mut self, i: usize) {
        if self.mru == i {
            return;
        }
        let Stream { older, newer, .. } = self.streams[i];
        match older {
            NONE => self.lru = newer,
            o => self.streams[o].newer = newer,
        }
        self.streams[newer].older = older;
        self.streams[i].older = self.mru;
        self.streams[i].newer = NONE;
        self.streams[self.mru].newer = i;
        self.mru = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_trains_quickly() {
        let mut pf = StreamPrefetcher::new(8, 2);
        let mut emitted = Vec::new();
        for i in 0..6u64 {
            emitted.extend(pf.on_access(i * 64));
        }
        assert!(emitted.contains(&(3 * 64)));
    }

    #[test]
    fn negative_stride_supported() {
        let mut pf = StreamPrefetcher::new(8, 1);
        let mut emitted = Vec::new();
        for i in (0..10u64).rev() {
            emitted.extend(pf.on_access(i * 64 + 640));
        }
        assert!(!emitted.is_empty());
        // Prefetches go downward.
        assert!(emitted.iter().all(|&a| a < 1280));
    }

    #[test]
    fn random_accesses_do_not_train() {
        let mut pf = StreamPrefetcher::new(4, 4);
        let addrs = [0x0u64, 0x40000, 0x9000, 0x123400, 0x77000, 0x3000];
        let mut emitted = Vec::new();
        for &a in &addrs {
            emitted.extend(pf.on_access(a));
        }
        assert!(emitted.is_empty());
    }

    #[test]
    fn multiple_interleaved_streams() {
        let mut pf = StreamPrefetcher::new(8, 1);
        let mut emitted = Vec::new();
        for i in 0..8u64 {
            emitted.extend(pf.on_access(i * 64)); // stream A
            emitted.extend(pf.on_access(0x10_0000 + i * 64)); // stream B
        }
        let a_hits = emitted.iter().filter(|&&a| a < 0x10_0000).count();
        let b_hits = emitted.iter().filter(|&&a| a >= 0x10_0000).count();
        assert!(a_hits > 0, "stream A never prefetched");
        assert!(b_hits > 0, "stream B never prefetched");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_streams_panics() {
        let _ = StreamPrefetcher::new(0, 1);
    }
}
