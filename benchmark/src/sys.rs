//! Process-level measurements the standard library does not expose:
//! process CPU time, peak resident set, and the fixed reference kernel
//! the noise guard times every round.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds (user + system) this process has consumed on all of its
/// threads, exited ones included — what `getrusage(RUSAGE_SELF)` sums,
/// at nanosecond rather than microsecond resolution.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the duration
    // of the call, and CLOCK_PROCESS_CPUTIME_ID is a clock every Linux
    // kernel this benchmark runs on provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in KiB (`VmHWM`).
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The reference kernel: a fixed amount of integer and floating-point
/// work (four independent xorshift streams feeding four FP accumulators
/// over an L1-resident table), about 20 ms on the reference sandbox. It
/// calls nothing in the program under test, so its time moves only when
/// the machine does.
pub fn reference_kernel() -> f64 {
    const ITERS: u32 = 5_400_000;
    let mut table = [0.0f64; 256];
    for (i, t) in table.iter_mut().enumerate() {
        *t = (i as f64 + 1.0).sqrt();
    }
    let mut x = [
        0x9e37_79b9_7f4a_7c15u64,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        0x2545_f491_4f6c_dd1d,
    ];
    let mut acc = [0.0f64; 4];
    for _ in 0..ITERS {
        for lane in 0..4 {
            let mut v = x[lane];
            v ^= v << 13;
            v ^= v >> 7;
            v ^= v << 17;
            x[lane] = v;
            acc[lane] = acc[lane] * 0.999_999 + table[(v & 0xff) as usize];
        }
    }
    std::hint::black_box(acc.iter().sum::<f64>() + (x[0] ^ x[1] ^ x[2] ^ x[3]) as f64)
}
