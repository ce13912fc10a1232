//! The process's CPU clock, for timing work that never waits.
//!
//! A query's read path does no I/O and never blocks: every page is in
//! memory, simulated latency is off and one thread runs the call. Its CPU
//! time is then its service time. The wall clock also counts the time the
//! hypervisor of a shared host takes the virtual CPU away (steal time),
//! which comes in bursts: on a 2-vCPU virtual machine of a shared host
//! (`perfbench/README.md`), `durable_rw` runs with 555 and 1300 jiffies of
//! steal had a snapshot-query p99 of 4.4 and 8.2 ms by the wall clock
//! against 1.9 and 2.0 ms of CPU time, and runs with under 40 jiffies
//! 1.6–1.8 ms by both. The clock counts every thread of the process, so
//! work a change hands to another thread is still counted.

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// A point on the process's CPU clock.
#[derive(Clone, Copy)]
pub struct CpuInstant(f64);

impl CpuInstant {
    pub fn now() -> CpuInstant {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
        // fields on the 64-bit Linux targets this benchmark runs on).
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "the process CPU clock is readable");
        CpuInstant(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }

    /// CPU seconds the process used since `self`.
    pub fn elapsed(&self) -> f64 {
        CpuInstant::now().0 - self.0
    }
}
