//! The host: its fingerprint, its peak memory, and an allocation counter
//! for the traced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations while [`count_allocs`]
/// runs its closure. Outside it the count costs one relaxed load, so the
/// untraced run measures the simulators as their own binaries run them.
pub struct CountingAlloc;

#[inline]
fn note(bytes: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the side count only touches
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f`, returning its result and, when `on`, the heap allocations
/// (count, bytes) it made. The benchmark is single-threaded, so every
/// counted allocation is `f`'s.
pub fn count_allocs<T>(on: bool, f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    ALLOCS.store(0, Relaxed);
    ALLOC_BYTES.store(0, Relaxed);
    COUNTING.store(on, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    (out, (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed)))
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const THREAD_CPUTIME: i32 = 3;

/// CPU time the calling thread has run. Unlike wall time it leaves out
/// time the virtual CPU was stolen by the hypervisor, which on the
/// machine this benchmark was built on reached a quarter of wall time
/// and changed from minute to minute.
fn thread_cpu_time() -> Duration {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(THREAD_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID is available on Linux");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// A start point on both the wall clock and the thread's CPU clock.
#[derive(Clone, Copy)]
pub struct Clock {
    wall: Instant,
    cpu: Duration,
}

impl Clock {
    pub fn start() -> Clock {
        Clock { wall: Instant::now(), cpu: thread_cpu_time() }
    }

    pub fn wall_start(&self) -> Instant {
        self.wall
    }

    /// (wall, CPU) time since the start.
    pub fn elapsed(&self) -> (Duration, Duration) {
        (self.wall.elapsed(), thread_cpu_time().saturating_sub(self.cpu))
    }
}

/// Steps of each of the two phases of a reference round; a round takes
/// about 4 ms of CPU time on the machine this benchmark was built on.
const REFERENCE_STEPS: u32 = 150_000;
/// Queues of the large phase, and slots per queue: 2 MiB of queue
/// storage, more than a core's private caches hold.
const LARGE_QUEUES: usize = 8192;
const LARGE_SLOTS: usize = 32;

/// Reference rounds per reference second (`ref_s`), the time unit of the
/// host-speed-independent metrics: one `ref_s` is the CPU time the host
/// takes for this many rounds, about one second on the machine this
/// benchmark was built on.
pub const REFERENCE_ROUNDS_PER_S: f64 = 250.0;

/// The reference kernel: fixed work of the kind a network simulator's
/// inner loop does, frozen here so no change to the simulators moves it.
///
/// On a shared host the same CPU time buys more or less work from minute
/// to minute (whole runs of the simulators went 20-40 % faster), and by
/// different amounts for code that stays in a core's caches and code that
/// does not. A round has one phase of each kind: values shuffled at
/// random between 64 small queues, branching on each one, then between
/// 8192 queues spread over 2 MiB. Its speed follows the simulators' far
/// more closely than a pure arithmetic loop or either phase alone does,
/// so dividing host time by it cancels most of that swing.
pub struct ReferenceKernel {
    slots: Vec<[u64; LARGE_SLOTS]>,
    /// (head, length) of each large queue.
    ends: Vec<(usize, usize)>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl ReferenceKernel {
    pub fn new() -> ReferenceKernel {
        ReferenceKernel {
            slots: vec![[0; LARGE_SLOTS]; LARGE_QUEUES],
            ends: vec![(0, 0); LARGE_QUEUES],
        }
    }

    /// Runs one round and returns its CPU time. Every round does the
    /// same work: both phases start from the same state.
    pub fn round(&mut self) -> Duration {
        let t = Clock::start();
        black_box(small_queues());
        black_box(self.large_queues());
        t.elapsed().1
    }

    fn large_queues(&mut self) -> u64 {
        self.ends.fill((0, 0));
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        let mut sum = 0u64;
        for _ in 0..REFERENCE_STEPS {
            let r = xorshift(&mut x);
            let from = r as usize % LARGE_QUEUES;
            let (head, len) = self.ends[from];
            if len == 0 {
                self.slots[from][head] = r;
                self.ends[from].1 = 1;
                continue;
            }
            let v = self.slots[from][head];
            self.ends[from] = ((head + 1) % LARGE_SLOTS, len - 1);
            sum = sum.wrapping_add(v);
            let to = (from + if r & (1 << 40) == 0 { 1 } else { 91 }) % LARGE_QUEUES;
            let (head, len) = self.ends[to];
            if len < LARGE_SLOTS {
                self.slots[to][(head + len) % LARGE_SLOTS] = v ^ r;
                self.ends[to].1 = len + 1;
            }
        }
        sum
    }
}

fn small_queues() -> u64 {
    let mut queues: Vec<VecDeque<u64>> =
        (0..64).map(|i| (0..8).map(|j| i * 8 + j).collect()).collect();
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    let mut sum = 0u64;
    for _ in 0..REFERENCE_STEPS {
        let r = xorshift(&mut x);
        let (from, to) = ((r & 63) as usize, ((r >> 6) & 63) as usize);
        match queues[from].pop_front() {
            Some(v) if v & 1 == 0 => {
                sum = sum.wrapping_add(v);
                queues[to].push_back(v.wrapping_mul(3) | 1);
            }
            Some(v) => queues[to].push_back(v >> 1),
            None => queues[from].push_back(r >> 40),
        }
    }
    sum
}

/// The process's resident-memory high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// What a result was measured on. Results with different fingerprints
/// are not compared.
pub struct Fingerprint {
    pub cpu: String,
    pub nproc: usize,
    pub rustc: &'static str,
    /// Pure-CPU spin-loop speed, in million loop iterations per CPU
    /// second (median of several timings): a calibration score for
    /// telling a slower machine from a slower program.
    pub spin_mips: f64,
}

impl Fingerprint {
    pub fn measure() -> Fingerprint {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Fingerprint { cpu, nproc, rustc: env!("PERFBENCH_RUSTC"), spin_mips: spin_mips() }
    }
}

fn spin_mips() -> f64 {
    const ITERS: u64 = 20_000_000;
    let mut scores: Vec<f64> = (0..5)
        .map(|_| {
            let t = Clock::start();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            ITERS as f64 / t.elapsed().1.as_secs_f64() / 1e6
        })
        .collect();
    crate::median(&mut scores)
}
