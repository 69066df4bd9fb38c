//! The campaign server's wire protocol: length-prefixed, checksummed
//! frames carrying a small closed set of request/response messages.
//!
//! The encoding follows the `EmuCheckpoint` discipline from
//! `orinoco-isa` (DESIGN.md §13): fixed magic, little-endian fixed-width
//! integers, an explicit error for every way a frame can be short,
//! unknown-tag rejection, and a trailing-bytes check so a frame is either
//! exactly one message or an error — never a prefix that happens to
//! parse. On top of that, every frame ends in an FNV-1a checksum of the
//! payload, so a flipped bit anywhere in transit is detected before the
//! payload is even looked at. The round-trip/corruption property tests in
//! `tests/protocol_props.rs` fuzz every message type through this module.
//!
//! The same canonical encoding doubles as the cache identity: a job's
//! cache key is the FNV-128 of its [`JobSpec`] encoding with the
//! result-invariant fields (`SimSpec::progress_cycles`, and
//! `SampleSpec::threads` up to its ceiling) zeroed — see
//! [`JobSpec::cache_key`]. Two specs collide only if their canonical
//! encodings are byte-identical, which the cache-determinism property
//! test exploits directly.

use orinoco_core::{
    CommitKind, CoreConfig, SampleConfig, SchedulerKind, DEFAULT_JITTER_SEED,
    DEFAULT_MAX_CYCLES_PER_INTERVAL,
};
use orinoco_verif::{CampaignChunk, FfEqChunk};
use orinoco_workloads::Workload;

/// Frame magic: protocol identity and version in one.
pub const FRAME_MAGIC: [u8; 4] = *b"ORS1";

/// Upper bound on a frame payload; anything larger is rejected before
/// allocation (a corrupt length field must not trigger a huge reserve).
pub const MAX_FRAME_LEN: usize = 1 << 26;

/// Everything that can go wrong decoding a frame or a message. Each
/// variant names the field being read so a corrupt stream is debuggable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Frame does not start with [`FRAME_MAGIC`].
    BadMagic,
    /// Declared payload length exceeds [`MAX_FRAME_LEN`].
    Oversize(u64),
    /// Input ended while reading the named field.
    Truncated(&'static str),
    /// Payload checksum mismatch (bit flip in transit).
    BadChecksum,
    /// Unknown tag byte for the named discriminant.
    UnknownTag(&'static str, u8),
    /// Message decoded but bytes were left over.
    TrailingBytes(usize),
    /// A length or index field holds an impossible value.
    BadValue(&'static str),
    /// A string field is not valid UTF-8.
    BadUtf8(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::Oversize(n) => write!(f, "frame payload of {n} bytes exceeds limit"),
            WireError::Truncated(field) => write!(f, "input truncated reading {field}"),
            WireError::BadChecksum => write!(f, "payload checksum mismatch"),
            WireError::UnknownTag(what, tag) => write!(f, "unknown {what} tag {tag}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::BadValue(field) => write!(f, "impossible value in {field}"),
            WireError::BadUtf8(field) => write!(f, "invalid UTF-8 in {field}"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a offset basis / prime (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Second offset basis for the high half of 128-bit keys: the canonical
/// basis XORed with an arbitrary odd constant, giving an independent
/// stream over the same bytes.
const FNV_OFFSET_HI: u64 = FNV_OFFSET ^ 0x9E37_79B9_7F4A_7C15;

/// FNV-1a over `bytes` from an explicit basis.
#[must_use]
pub const fn fnv64_from(mut hash: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    hash
}

/// FNV-1a from the canonical basis (frame checksums, digests).
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_from(FNV_OFFSET, bytes)
}

// ---------------------------------------------------------------------------
// Encode / decode primitives
// ---------------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_seeds(out: &mut Vec<u8>, seeds: &[u64]) {
    put_u64(out, seeds.len() as u64);
    for &s in seeds {
        put_u64(out, s);
    }
}

/// A cursor over a message payload with field-labelled truncation errors.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::BadValue(field))?;
        if end > self.buf.len() {
            return Err(WireError::Truncated(field));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, field)?[0])
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, field)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn bool(&mut self, field: &'static str) -> Result<bool, WireError> {
        match self.u8(field)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadValue(field)),
        }
    }

    fn str(&mut self, field: &'static str) -> Result<String, WireError> {
        let len = self.u64(field)?;
        if len > MAX_FRAME_LEN as u64 {
            return Err(WireError::BadValue(field));
        }
        let bytes = self.take(len as usize, field)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8(field))
    }

    fn seeds(&mut self, field: &'static str) -> Result<Vec<u64>, WireError> {
        let len = self.u64(field)?;
        if len > (MAX_FRAME_LEN / 8) as u64 {
            return Err(WireError::BadValue(field));
        }
        (0..len).map(|_| self.u64(field)).collect()
    }

    fn finish(self) -> Result<(), WireError> {
        let left = self.buf.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(left))
        }
    }
}

/// Looks `tag` up in `all`, rejecting out-of-range values.
fn from_all<T: Copy>(all: &[T], tag: u8, what: &'static str) -> Result<T, WireError> {
    all.get(tag as usize).copied().ok_or(WireError::UnknownTag(what, tag))
}

/// Position of `value` in `all` (encode side; the arrays are tiny).
fn to_tag<T: Copy + PartialEq>(all: &[T], value: T) -> u8 {
    all.iter().position(|v| *v == value).expect("value missing from ALL array") as u8
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Wraps a message payload into one wire frame:
/// `magic · u64 payload-length · payload · u64 FNV-1a(payload)`.
#[must_use]
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_FRAME_LEN, "frame payload too large");
    let mut out = Vec::with_capacity(payload.len() + 20);
    out.extend_from_slice(&FRAME_MAGIC);
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    put_u64(&mut out, fnv64(payload));
    out
}

/// Unwraps one frame, returning the verified payload and the total frame
/// size consumed. `buf` may extend past the frame (streaming reads);
/// short input is [`WireError::Truncated`] so callers can wait for more.
pub fn decode_frame(buf: &[u8]) -> Result<(&[u8], usize), WireError> {
    let mut r = Reader::new(buf);
    if r.take(4, "frame magic")? != FRAME_MAGIC {
        return Err(WireError::BadMagic);
    }
    let len = r.u64("frame length")?;
    if len > MAX_FRAME_LEN as u64 {
        return Err(WireError::Oversize(len));
    }
    let payload = r.take(len as usize, "frame payload")?;
    let sum = r.u64("frame checksum")?;
    if sum != fnv64(payload) {
        return Err(WireError::BadChecksum);
    }
    Ok((payload, 20 + len as usize))
}

// ---------------------------------------------------------------------------
// Job specifications
// ---------------------------------------------------------------------------

/// Base configuration a [`ConfigSpec`] starts from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// [`CoreConfig::base`].
    Base,
    /// [`CoreConfig::pro`].
    Pro,
    /// [`CoreConfig::ultra`].
    Ultra,
}

impl Preset {
    /// All presets, tag order.
    pub const ALL: [Preset; 3] = [Preset::Base, Preset::Pro, Preset::Ultra];
}

/// A wire-transportable core configuration: a preset plus the knobs the
/// sweep tables vary. Deliberately not the full [`CoreConfig`] — the
/// sweeps select from a closed set of shapes, and a closed spec keeps the
/// canonical encoding (and therefore the cache key) small and total.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigSpec {
    /// Starting preset.
    pub preset: Preset,
    /// Issue scheduler.
    pub scheduler: SchedulerKind,
    /// Commit policy.
    pub commit: CommitKind,
    /// Idle-cycle fast-forward (on for throughput, off for A/B tests).
    pub fast_forward: bool,
    /// ROB entries override; 0 keeps the preset's value.
    pub rob_entries: u64,
    /// IQ entries override; 0 keeps the preset's value.
    pub iq_entries: u64,
}

impl ConfigSpec {
    /// The default sweep point: base preset, full Orinoco policies.
    #[must_use]
    pub fn orinoco_base() -> Self {
        Self {
            preset: Preset::Base,
            scheduler: SchedulerKind::Orinoco,
            commit: CommitKind::Orinoco,
            fast_forward: true,
            rob_entries: 0,
            iq_entries: 0,
        }
    }

    /// Materialises the [`CoreConfig`] this spec describes, seeding it
    /// with `seed` (the sim seed, so config-seeded structures like
    /// predictors derive from the job identity). The sizes are the
    /// client's, so the result may be invalid: the job paths run
    /// [`CoreConfig::validate`] on it and answer a bad spec with `Failed`,
    /// and `Core::new` panics on it.
    #[must_use]
    pub fn to_core_config(&self, seed: u64) -> CoreConfig {
        let mut cfg = match self.preset {
            Preset::Base => CoreConfig::base(),
            Preset::Pro => CoreConfig::pro(),
            Preset::Ultra => CoreConfig::ultra(),
        };
        cfg = cfg.with_scheduler(self.scheduler).with_commit(self.commit);
        if !self.fast_forward {
            cfg = cfg.without_fast_forward();
        }
        if self.rob_entries > 0 {
            cfg.rob_entries = self.rob_entries as usize;
        }
        if self.iq_entries > 0 {
            cfg.iq_entries = self.iq_entries as usize;
        }
        cfg.seed = seed;
        cfg
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.push(to_tag(&Preset::ALL, self.preset));
        out.push(to_tag(&SchedulerKind::ALL, self.scheduler));
        out.push(to_tag(&CommitKind::ALL, self.commit));
        put_bool(out, self.fast_forward);
        put_u64(out, self.rob_entries);
        put_u64(out, self.iq_entries);
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        Ok(Self {
            preset: from_all(&Preset::ALL, r.u8("config preset")?, "config preset")?,
            scheduler: from_all(&SchedulerKind::ALL, r.u8("scheduler")?, "scheduler")?,
            commit: from_all(&CommitKind::ALL, r.u8("commit kind")?, "commit kind")?,
            fast_forward: r.bool("fast_forward")?,
            rob_entries: r.u64("rob_entries")?,
            iq_entries: r.u64("iq_entries")?,
        })
    }
}

/// One simulation job: a workload kernel run to completion on a core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimSpec {
    /// Core configuration.
    pub config: ConfigSpec,
    /// Workload kernel.
    pub workload: Workload,
    /// Workload scale factor (≥ 1; emulator step limit scales with it).
    pub scale: u64,
    /// Program/data seed, also the core seed.
    pub seed: u64,
    /// Emulator step limit (dynamic instructions); 0 lets the workload
    /// run to its natural halt. Part of the result, so part of the key.
    pub max_instrs: u64,
    /// Cycle budget; exceeding it fails the job. 0 = default budget.
    pub max_cycles: u64,
    /// Stream a [`Response::Progress`] every this many cycles; 0 = no
    /// streaming. Presentation-only: zeroed out of the cache key, because
    /// it cannot change the result — only how often the client hears
    /// about it.
    pub progress_cycles: u64,
}

impl SimSpec {
    /// Default cycle budget, matching the co-simulation default.
    pub const DEFAULT_MAX_CYCLES: u64 = 100_000_000;

    fn encode(&self, out: &mut Vec<u8>) {
        self.config.encode(out);
        out.push(to_tag(&Workload::ALL, self.workload));
        put_u64(out, self.scale);
        put_u64(out, self.seed);
        put_u64(out, self.max_instrs);
        put_u64(out, self.max_cycles);
        put_u64(out, self.progress_cycles);
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        let spec = Self {
            config: ConfigSpec::decode(r)?,
            workload: from_all(&Workload::ALL, r.u8("workload")?, "workload")?,
            scale: r.u64("scale")?,
            seed: r.u64("seed")?,
            max_instrs: r.u64("max_instrs")?,
            max_cycles: r.u64("max_cycles")?,
            progress_cycles: r.u64("progress_cycles")?,
        };
        if spec.scale == 0 || spec.scale > u64::from(u32::MAX) {
            return Err(WireError::BadValue("scale"));
        }
        Ok(spec)
    }
}

/// One checkpointed-sampling job: the workload is *estimated* from
/// stratified (or phase-clustered) detailed intervals instead of being
/// simulated end to end — the server-side face of
/// [`orinoco_core::run_sampled`].
///
/// Sample parameters are carried as plain integers with 0 meaning "none"
/// (`warm_horizon`, `max_intervals`, `phases`) or "auto" (`threads`), so
/// the wire format stays fixed-width and the cache key total. The decoder
/// only enforces wire-level invariants (`scale`); *semantic* validity
/// (`period ≥ warmup + detail`, …) is checked by
/// [`SampleConfig::validate`] when the job runs, so a bad spec surfaces
/// as a `Failed` response rather than a rejected frame or a panicked
/// worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleSpec {
    /// Core configuration.
    pub config: ConfigSpec,
    /// Workload kernel.
    pub workload: Workload,
    /// Workload scale factor (≥ 1).
    pub scale: u64,
    /// Program/data seed, also the core seed.
    pub seed: u64,
    /// Detailed warmup instructions per interval.
    pub warmup_insts: u64,
    /// Measured instructions per interval.
    pub detail_insts: u64,
    /// Instructions between interval starts.
    pub period_insts: u64,
    /// Functional-warming horizon; 0 warms the whole stream.
    pub warm_horizon: u64,
    /// Upper bound on detailed intervals; 0 = unbounded.
    pub max_intervals: u64,
    /// Phase clusters (BBV k-means); 0 = sample every stratum.
    pub phases: u64,
    /// Worker threads for the detailed intervals; 0 = auto, at most
    /// [`SampleConfig::MAX_THREADS`]. The sampled result is
    /// byte-identical at any accepted thread count, so like
    /// `progress_cycles` an accepted count is zeroed out of the cache key
    /// — it changes wall-clock time, never the answer.
    pub threads: u64,
}

impl SampleSpec {
    /// A default-shaped sampling job for `workload`: the Orinoco base
    /// config and the validation-harness geometry (2k warmup / 10k detail
    /// / 1M period), serial, stratified.
    #[must_use]
    pub fn orinoco_base(workload: Workload) -> Self {
        Self {
            config: ConfigSpec::orinoco_base(),
            workload,
            scale: 1,
            seed: 1,
            warmup_insts: 2_000,
            detail_insts: 10_000,
            period_insts: 1_000_000,
            warm_horizon: 0,
            max_intervals: 0,
            phases: 0,
            threads: 0,
        }
    }

    /// Materialises the [`SampleConfig`] this spec describes (which may
    /// be semantically invalid — run [`SampleConfig::validate`] before
    /// sampling).
    #[must_use]
    pub fn to_sample_config(&self) -> SampleConfig {
        SampleConfig {
            warmup_insts: self.warmup_insts,
            detail_insts: self.detail_insts,
            period_insts: self.period_insts,
            functional_warming: true,
            max_intervals: self.max_intervals as usize,
            max_cycles_per_interval: DEFAULT_MAX_CYCLES_PER_INTERVAL,
            jitter_seed: Some(DEFAULT_JITTER_SEED),
            wrong_path_depth: None,
            warm_horizon: (self.warm_horizon > 0).then_some(self.warm_horizon),
            threads: usize::try_from(self.threads).unwrap_or(usize::MAX),
            phases: (self.phases > 0).then_some(self.phases as usize),
            chaos_panic_interval: None,
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.config.encode(out);
        out.push(to_tag(&Workload::ALL, self.workload));
        put_u64(out, self.scale);
        put_u64(out, self.seed);
        put_u64(out, self.warmup_insts);
        put_u64(out, self.detail_insts);
        put_u64(out, self.period_insts);
        put_u64(out, self.warm_horizon);
        put_u64(out, self.max_intervals);
        put_u64(out, self.phases);
        put_u64(out, self.threads);
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        let spec = Self {
            config: ConfigSpec::decode(r)?,
            workload: from_all(&Workload::ALL, r.u8("workload")?, "workload")?,
            scale: r.u64("scale")?,
            seed: r.u64("seed")?,
            warmup_insts: r.u64("warmup_insts")?,
            detail_insts: r.u64("detail_insts")?,
            period_insts: r.u64("period_insts")?,
            warm_horizon: r.u64("warm_horizon")?,
            max_intervals: r.u64("max_intervals")?,
            phases: r.u64("phases")?,
            threads: r.u64("threads")?,
        };
        if spec.scale == 0 || spec.scale > u64::from(u32::MAX) {
            return Err(WireError::BadValue("scale"));
        }
        Ok(spec)
    }
}

/// A contiguous slice of a verification campaign (clean+injection fuzz or
/// ffeq), as run by `orinoco_verif::campaign_chunk` / `ffeq_chunk`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkSpec {
    /// Campaign seed (the whole campaign's identity).
    pub campaign_seed: u64,
    /// First program index of this chunk.
    pub start: u64,
    /// Number of programs in this chunk.
    pub count: u64,
    /// Total programs in the campaign (fixes the seed stream).
    pub programs: u64,
}

impl ChunkSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.campaign_seed);
        put_u64(out, self.start);
        put_u64(out, self.count);
        put_u64(out, self.programs);
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        Ok(Self {
            campaign_seed: r.u64("campaign_seed")?,
            start: r.u64("chunk start")?,
            count: r.u64("chunk count")?,
            programs: r.u64("chunk programs")?,
        })
    }
}

/// The work a client can ask for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobSpec {
    /// One simulation run.
    Sim(SimSpec),
    /// A fuzz-campaign slice (clean + SPEC-flip injection passes).
    VerifChunk(ChunkSpec),
    /// A fast-forward-equivalence campaign slice.
    FfeqChunk(ChunkSpec),
    /// One checkpointed-sampling estimate.
    Sample(SampleSpec),
}

impl JobSpec {
    /// Canonical encoding (message body without framing).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            JobSpec::Sim(s) => {
                out.push(0);
                s.encode(&mut out);
            }
            JobSpec::VerifChunk(c) => {
                out.push(1);
                c.encode(&mut out);
            }
            JobSpec::FfeqChunk(c) => {
                out.push(2);
                c.encode(&mut out);
            }
            JobSpec::Sample(s) => {
                out.push(3);
                s.encode(&mut out);
            }
        }
        out
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        match r.u8("job kind")? {
            0 => Ok(JobSpec::Sim(SimSpec::decode(r)?)),
            1 => Ok(JobSpec::VerifChunk(ChunkSpec::decode(r)?)),
            2 => Ok(JobSpec::FfeqChunk(ChunkSpec::decode(r)?)),
            3 => Ok(JobSpec::Sample(SampleSpec::decode(r)?)),
            tag => Err(WireError::UnknownTag("job kind", tag)),
        }
    }

    /// The canonical 128-bit cache identity of this job: FNV-128 (two
    /// independent FNV-1a streams) over the canonical encoding with
    /// result-invariant fields zeroed (`progress_cycles` is presentation
    /// only; a `threads` count the sampler accepts changes wall-clock
    /// time, never the byte-identical sampled result — one above
    /// [`SampleConfig::MAX_THREADS`] fails, so it keeps its own key and
    /// never shares an outcome with a valid twin). Distinct specs collide
    /// only if their canonical encodings are byte-identical — i.e. never,
    /// since the encoding is injective over the spec fields (fixed-width,
    /// no varints, closed tag sets).
    #[must_use]
    pub fn cache_key(&self) -> u128 {
        let mut canon = *self;
        match &mut canon {
            JobSpec::Sim(s) => s.progress_cycles = 0,
            JobSpec::Sample(s) if s.threads <= SampleConfig::MAX_THREADS as u64 => s.threads = 0,
            JobSpec::Sample(_) | JobSpec::VerifChunk(_) | JobSpec::FfeqChunk(_) => {}
        }
        let bytes = canon.encode();
        let lo = fnv64_from(FNV_OFFSET, &bytes);
        let hi = fnv64_from(FNV_OFFSET_HI, &bytes);
        (u128::from(hi) << 64) | u128::from(lo)
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Client → server messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Submit `spec` on logical queue `queue`. Responses for jobs on one
    /// queue arrive in submission order.
    Submit {
        /// Logical response queue (per-client).
        queue: u64,
        /// The job.
        spec: JobSpec,
    },
    /// Close this connection politely.
    Bye,
}

impl Request {
    /// Canonical message encoding (goes inside a frame).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(0),
            Request::Submit { queue, spec } => {
                out.push(1);
                put_u64(&mut out, *queue);
                out.extend_from_slice(&spec.encode());
            }
            Request::Bye => out.push(2),
        }
        out
    }

    /// Decodes one request from a verified frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let req = match r.u8("request tag")? {
            0 => Request::Ping,
            1 => {
                let queue = r.u64("submit queue")?;
                let spec = JobSpec::decode(&mut r)?;
                Request::Submit { queue, spec }
            }
            2 => Request::Bye,
            tag => return Err(WireError::UnknownTag("request", tag)),
        };
        r.finish()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// The observables of one finished simulation. `stats_debug` is the full
/// `SimStats` Debug rendering — the byte-identity contract the
/// determinism tests diff — and the digests fold the commit-event stream
/// and stats rendering down to checkable fingerprints that ship cheaply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimResult {
    /// Final cycle count.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Full `SimStats` Debug rendering.
    pub stats_debug: String,
    /// FNV-1a over every commit event's `Debug` line (`{:?}` and `\n`), in
    /// commit order (order-sensitive), computed without formatting by
    /// [`crate::digest::fold_commit_event`].
    pub commit_digest: u64,
    /// FNV-1a over `stats_debug`.
    pub stats_digest: u64,
}

impl SimResult {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.cycles);
        put_u64(out, self.committed);
        put_str(out, &self.stats_debug);
        put_u64(out, self.commit_digest);
        put_u64(out, self.stats_digest);
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        Ok(Self {
            cycles: r.u64("sim cycles")?,
            committed: r.u64("sim committed")?,
            stats_debug: r.str("stats_debug")?,
            commit_digest: r.u64("commit_digest")?,
            stats_digest: r.u64("stats_digest")?,
        })
    }
}

/// The observables of one finished sampling job. Floats travel as IEEE-754
/// bit patterns (`f64::to_bits`) so the wire round-trip is exact and the
/// byte-identity contract extends across the network; `summary` is the
/// human-readable [`orinoco_core::SampledStats::summary`] line and
/// `summary_digest` its FNV-1a fingerprint (the cheap diffable identity,
/// mirroring `SimResult::stats_digest`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampledResult {
    /// Instructions the full run retires (functional total).
    pub total_insts: u64,
    /// Instructions simulated in detail across all measurement windows.
    pub detailed_insts: u64,
    /// Instructions spent in detailed warmup.
    pub warmup_insts: u64,
    /// Detailed intervals run.
    pub intervals: u64,
    /// Total interval weight (= strata covered; equals `intervals` unless
    /// phase clustering collapsed strata onto representatives).
    pub weight_sum: u64,
    /// Estimated CPI, as `f64::to_bits`.
    pub est_cpi_bits: u64,
    /// Relative 95% confidence half-interval, as `f64::to_bits`.
    pub rel_ci95_bits: u64,
    /// Human-readable summary line.
    pub summary: String,
    /// FNV-1a over `summary`.
    pub summary_digest: u64,
}

impl SampledResult {
    /// Estimated cycles per instruction.
    #[must_use]
    pub fn est_cpi(&self) -> f64 {
        f64::from_bits(self.est_cpi_bits)
    }

    /// Estimated instructions per cycle.
    #[must_use]
    pub fn est_ipc(&self) -> f64 {
        1.0 / self.est_cpi()
    }

    /// Relative 95% confidence half-interval on the CPI estimate.
    #[must_use]
    pub fn rel_ci95(&self) -> f64 {
        f64::from_bits(self.rel_ci95_bits)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.total_insts);
        put_u64(out, self.detailed_insts);
        put_u64(out, self.warmup_insts);
        put_u64(out, self.intervals);
        put_u64(out, self.weight_sum);
        put_u64(out, self.est_cpi_bits);
        put_u64(out, self.rel_ci95_bits);
        put_str(out, &self.summary);
        put_u64(out, self.summary_digest);
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        Ok(Self {
            total_insts: r.u64("sampled total_insts")?,
            detailed_insts: r.u64("sampled detailed_insts")?,
            warmup_insts: r.u64("sampled warmup_insts")?,
            intervals: r.u64("sampled intervals")?,
            weight_sum: r.u64("sampled weight_sum")?,
            est_cpi_bits: r.u64("sampled est_cpi")?,
            rel_ci95_bits: r.u64("sampled rel_ci95")?,
            summary: r.str("sampled summary")?,
            summary_digest: r.u64("summary_digest")?,
        })
    }
}

fn encode_campaign_chunk(c: &CampaignChunk, out: &mut Vec<u8>) {
    put_u64(out, c.programs_run);
    put_u64(out, c.total_cycles);
    put_u64(out, c.total_commits);
    put_u64(out, c.total_ooo_commits);
    put_seeds(out, &c.failure_seeds);
    put_u64(out, c.injection_runs);
    put_u64(out, c.injection_fired);
    put_u64(out, c.injection_caught);
}

fn decode_campaign_chunk(r: &mut Reader) -> Result<CampaignChunk, WireError> {
    Ok(CampaignChunk {
        programs_run: r.u64("chunk programs_run")?,
        total_cycles: r.u64("chunk total_cycles")?,
        total_commits: r.u64("chunk total_commits")?,
        total_ooo_commits: r.u64("chunk total_ooo_commits")?,
        failure_seeds: r.seeds("chunk failure_seeds")?,
        injection_runs: r.u64("chunk injection_runs")?,
        injection_fired: r.u64("chunk injection_fired")?,
        injection_caught: r.u64("chunk injection_caught")?,
    })
}

fn encode_ffeq_chunk(c: &FfEqChunk, out: &mut Vec<u8>) {
    put_u64(out, c.programs_run);
    put_u64(out, c.total_cycles);
    put_u64(out, c.total_commits);
    put_seeds(out, &c.mismatch_seeds);
}

fn decode_ffeq_chunk(r: &mut Reader) -> Result<FfEqChunk, WireError> {
    Ok(FfEqChunk {
        programs_run: r.u64("ffeq programs_run")?,
        total_cycles: r.u64("ffeq total_cycles")?,
        total_commits: r.u64("ffeq total_commits")?,
        mismatch_seeds: r.seeds("ffeq mismatch_seeds")?,
    })
}

/// A completed job's payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobResult {
    /// Simulation observables.
    Sim(SimResult),
    /// Fuzz-campaign chunk counters.
    Verif(CampaignChunk),
    /// Ffeq-campaign chunk counters.
    Ffeq(FfEqChunk),
    /// Checkpointed-sampling observables.
    Sampled(SampledResult),
}

impl JobResult {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            JobResult::Sim(s) => {
                out.push(0);
                s.encode(out);
            }
            JobResult::Verif(c) => {
                out.push(1);
                encode_campaign_chunk(c, out);
            }
            JobResult::Ffeq(c) => {
                out.push(2);
                encode_ffeq_chunk(c, out);
            }
            JobResult::Sampled(s) => {
                out.push(3);
                s.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        match r.u8("result kind")? {
            0 => Ok(JobResult::Sim(SimResult::decode(r)?)),
            1 => Ok(JobResult::Verif(decode_campaign_chunk(r)?)),
            2 => Ok(JobResult::Ffeq(decode_ffeq_chunk(r)?)),
            3 => Ok(JobResult::Sampled(SampledResult::decode(r)?)),
            tag => Err(WireError::UnknownTag("result kind", tag)),
        }
    }
}

/// Server → client messages. For one queue, `Accepted`/`Done`/`Failed`
/// arrive in job-submission order; `Progress` interleaves between a job's
/// `Accepted` and its terminal message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// The job was admitted; `cached` means it will be served from the
    /// completed-result cache without touching a core.
    Accepted {
        /// Server-assigned job identity.
        job_id: u64,
        /// Served from cache.
        cached: bool,
    },
    /// Incremental update from a running simulation.
    Progress {
        /// Job this update belongs to.
        job_id: u64,
        /// Cycles simulated so far.
        cycles: u64,
        /// Instructions committed so far.
        committed: u64,
        /// Stall-taxonomy Debug rendering at this point.
        stalls: String,
    },
    /// Terminal: the job finished.
    Done {
        /// Job this result belongs to.
        job_id: u64,
        /// The result.
        result: JobResult,
    },
    /// Terminal: the job failed (deadlocked core, cycle-budget overrun,
    /// panicked lane). Failures are not cached; resubmitting retries.
    Failed {
        /// Job this failure belongs to.
        job_id: u64,
        /// Human-readable cause.
        reason: String,
    },
}

impl Response {
    /// Canonical message encoding (goes inside a frame).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Pong => out.push(0),
            Response::Accepted { job_id, cached } => {
                out.push(1);
                put_u64(&mut out, *job_id);
                put_bool(&mut out, *cached);
            }
            Response::Progress { job_id, cycles, committed, stalls } => {
                out.push(2);
                put_u64(&mut out, *job_id);
                put_u64(&mut out, *cycles);
                put_u64(&mut out, *committed);
                put_str(&mut out, stalls);
            }
            Response::Done { job_id, result } => {
                out.push(3);
                put_u64(&mut out, *job_id);
                result.encode(&mut out);
            }
            Response::Failed { job_id, reason } => {
                out.push(4);
                put_u64(&mut out, *job_id);
                put_str(&mut out, reason);
            }
        }
        out
    }

    /// Decodes one response from a verified frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8("response tag")? {
            0 => Response::Pong,
            1 => Response::Accepted {
                job_id: r.u64("accepted job_id")?,
                cached: r.bool("accepted cached")?,
            },
            2 => Response::Progress {
                job_id: r.u64("progress job_id")?,
                cycles: r.u64("progress cycles")?,
                committed: r.u64("progress committed")?,
                stalls: r.str("progress stalls")?,
            },
            3 => Response::Done { job_id: r.u64("done job_id")?, result: JobResult::decode(&mut r)? },
            4 => Response::Failed {
                job_id: r.u64("failed job_id")?,
                reason: r.str("failed reason")?,
            },
            tag => return Err(WireError::UnknownTag("response", tag)),
        };
        r.finish()?;
        Ok(resp)
    }
}
