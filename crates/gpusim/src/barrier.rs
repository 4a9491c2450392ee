//! PTX-style named barriers (`bar.sync id, count`).
//!
//! Semantics follow §4.2.2 of the paper and the PTX ISA:
//!
//! * 16 barriers per block;
//! * arrival is **per warp** — a warp with any active lane arrives on
//!   behalf of all 32 of its threads, which is why the expected count must
//!   be a multiple of the warp size (the paper rounds N participants up to
//!   X = W⌈N/W⌉);
//! * different subsets of warps can synchronize on different barrier ids
//!   concurrently.
//!
//! Besides releasing the OS threads that simulate the warps, the barrier
//! synchronizes their *virtual clocks*: every released warp resumes at the
//! latest arrival time plus the barrier latency.

use std::time::Duration;

use vmcommon::sync::{Condvar, Mutex};

use crate::timing;

/// Error produced when a barrier is never satisfied (a deadlocked guest).
#[derive(Clone, Debug)]
pub struct BarrierTimeout {
    pub barrier: u32,
    pub expected_threads: u32,
    pub arrived_threads: u32,
}

struct State {
    /// Threads that have arrived in the current generation.
    arrived: u32,
    /// Incremented on every release.
    generation: u64,
    /// Max virtual clock among arrivals of the current generation.
    max_cycles: u64,
    /// Clock value all waiters of the *previous* generation resume at.
    release_cycles: u64,
}

/// One named barrier.
pub struct NamedBarrier {
    id: u32,
    timeout: Duration,
    st: Mutex<State>,
    cv: Condvar,
}

/// How long a simulated barrier may block host-side before we declare the
/// guest deadlocked, unless the barrier was built with an explicit timeout.
pub const BARRIER_HOST_TIMEOUT: Duration = Duration::from_secs(30);

impl NamedBarrier {
    pub fn new(id: u32) -> NamedBarrier {
        NamedBarrier::with_timeout(id, BARRIER_HOST_TIMEOUT)
    }

    /// A barrier that reports a deadlock after `timeout` of host-side
    /// waiting instead of [`BARRIER_HOST_TIMEOUT`].
    pub fn with_timeout(id: u32, timeout: Duration) -> NamedBarrier {
        NamedBarrier {
            id,
            timeout,
            st: Mutex::new(State { arrived: 0, generation: 0, max_cycles: 0, release_cycles: 0 }),
            cv: Condvar::new(),
        }
    }

    /// Arrive on behalf of one warp (32 threads) and wait until
    /// `expected_threads` have arrived. Updates the caller's virtual clock.
    pub fn sync(&self, expected_threads: u32, cycles: &mut u64) -> Result<(), BarrierTimeout> {
        debug_assert_eq!(expected_threads % timing::WARP_SIZE, 0);
        let mut st = self.st.lock();
        st.arrived += timing::WARP_SIZE;
        st.max_cycles = st.max_cycles.max(*cycles);
        if st.arrived >= expected_threads {
            st.release_cycles = st.max_cycles + timing::BARRIER_LAT;
            st.arrived = 0;
            st.max_cycles = 0;
            st.generation += 1;
            *cycles = st.release_cycles;
            self.cv.notify_all();
            return Ok(());
        }
        let gen = st.generation;
        loop {
            if self.cv.wait_for(&mut st, self.timeout).timed_out() {
                let arrived = st.arrived;
                // Undo our arrival so a late retry does not double-count.
                st.arrived = st.arrived.saturating_sub(timing::WARP_SIZE);
                return Err(BarrierTimeout {
                    barrier: self.id,
                    expected_threads,
                    arrived_threads: arrived,
                });
            }
            if st.generation != gen {
                *cycles = st.release_cycles;
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn releases_when_count_reached() {
        let b = Arc::new(NamedBarrier::new(0));
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                let mut cycles = 100 * (w + 1);
                b.sync(128, &mut cycles).unwrap();
                cycles
            }));
        }
        let cycles: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Everyone resumes at the same, latest-arrival-based clock.
        for c in &cycles {
            assert_eq!(*c, 400 + timing::BARRIER_LAT);
        }
    }

    #[test]
    fn partial_subsets_independent() {
        // Two warps sync on barrier 1 with count 64 while a third warp is
        // unrelated — must not deadlock.
        let b1 = Arc::new(NamedBarrier::new(1));
        let t1 = {
            let b = b1.clone();
            std::thread::spawn(move || {
                let mut c = 10;
                b.sync(64, &mut c).unwrap();
                c
            })
        };
        let t2 = {
            let b = b1.clone();
            std::thread::spawn(move || {
                let mut c = 50;
                b.sync(64, &mut c).unwrap();
                c
            })
        };
        assert_eq!(t1.join().unwrap(), 50 + timing::BARRIER_LAT);
        assert_eq!(t2.join().unwrap(), 50 + timing::BARRIER_LAT);
    }

    #[test]
    fn reusable_across_generations() {
        let b = Arc::new(NamedBarrier::new(2));
        for round in 0..3u64 {
            let mut handles = Vec::new();
            for w in 0..2u64 {
                let b = b.clone();
                handles.push(std::thread::spawn(move || {
                    let mut c = round * 1000 + w;
                    b.sync(64, &mut c).unwrap();
                    c
                }));
            }
            for h in handles {
                assert_eq!(h.join().unwrap(), round * 1000 + 1 + timing::BARRIER_LAT);
            }
        }
    }

    /// A deadlocked guest fails in ~200 ms instead of stalling for the
    /// 30 s production default when the barrier carries a short timeout.
    #[test]
    fn deadlocked_barrier_times_out_quickly() {
        // One warp arrives at a barrier expecting two warps (64 threads);
        // the second warp never comes — a guest deadlock.
        let b = Arc::new(NamedBarrier::with_timeout(3, Duration::from_millis(200)));
        let start = std::time::Instant::now();
        let mut cycles = 0u64;
        let err = b.sync(64, &mut cycles).expect_err("lone warp must time out");
        let waited = start.elapsed();

        assert_eq!(err.barrier, 3);
        assert_eq!(err.expected_threads, 64);
        assert_eq!(err.arrived_threads, 32);
        assert!(waited.as_millis() >= 180, "returned before the timeout: {waited:?}");
        assert!(waited.as_secs() < 5, "explicit timeout not honoured: waited {waited:?}");

        // The failed arrival was undone, so a matching second warp can
        // still complete the barrier afterwards.
        let b2 = b.clone();
        let t = std::thread::spawn(move || {
            let mut c = 0u64;
            b2.sync(64, &mut c).map(|_| c)
        });
        let mut c = 0u64;
        b.sync(64, &mut c).expect("retry after timeout must succeed");
        t.join().unwrap().expect("peer warp must be released");
    }
}
