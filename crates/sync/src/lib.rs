//! The workspace's single sanctioned import path for `std::sync`.
//!
//! Every concurrency primitive in the pipeline — atomics, mutexes,
//! condvars, `OnceLock`, spawned threads — comes through this shim
//! instead of `std::sync` directly (the `raw-sync` xtask rule enforces
//! it, mirroring the raw-thread rule that funnels OS threads through
//! `rtse-pool`). Normally the shim is a zero-cost re-export of the std
//! types; compiled with `RUSTFLAGS="--cfg rtse_loom"` it swaps to the
//! [`loom`] model-checked types, so the protocol models in this crate's
//! `tests/` explore *every* thread interleaving of the real production
//! code paths rather than a transliteration of them.
//!
//! Two deliberate gaps keep the shim fail-closed rather than silently
//! unfaithful:
//!
//! * `mpsc`, `Barrier`, and `std::thread::scope` have no loom
//!   counterparts here, so they are only re-exported when the cfg is
//!   off. Code using them (`rtse-pool`, `rtse-serve` request plumbing)
//!   cannot be compiled into a loom model by accident — attempting it is
//!   a compile error, not a wrong answer.
//! * The loom backend is sequentially consistent: it validates protocol
//!   logic (lost updates, double builds, torn reads, deadlock), while
//!   the per-site ordering table in DESIGN.md §8 plus the
//!   `atomic-ordering` lint govern the weak-memory axis.
//!
//! The vendored checker itself is additionally exposed as
//! [`loom`](mod@loom) so regression tests for checker-found
//! counterexamples can drive `loom::model` explicitly in a plain
//! `cargo test` run, without the cfg.

/// Which backend this build of the shim compiled against.
#[cfg(rtse_loom)]
pub const BACKEND: &str = "loom";
/// Which backend this build of the shim compiled against.
#[cfg(not(rtse_loom))]
pub const BACKEND: &str = "std";

// Re-export the vendored checker so tests can use `rtse_sync::loom`
// explicitly (counterexample regressions, checker self-checks) even when
// the shim itself is on the std backend.
pub use loom;

#[cfg(rtse_loom)]
pub use loom::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, OnceLock, PoisonError};

#[cfg(not(rtse_loom))]
pub use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, OnceLock, PoisonError};

// No loom counterpart: available on the std backend only (fail-closed —
// see the crate docs).
#[cfg(not(rtse_loom))]
pub use std::sync::{mpsc, Barrier};

pub mod atomic {
    //! `std::sync::atomic` through the shim.

    #[cfg(rtse_loom)]
    pub use loom::sync::atomic::{
        fence, AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering,
    };

    #[cfg(not(rtse_loom))]
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering,
    };
}

pub mod hint {
    //! Spin-wait hint; under loom this deschedules the spinner so retry
    //! loops cannot starve the progress they are waiting on.

    #[cfg(rtse_loom)]
    pub use loom::hint::spin_loop;

    #[cfg(not(rtse_loom))]
    pub use std::hint::spin_loop;
}

pub mod thread {
    //! Thread spawn/yield through the shim. Production code must keep
    //! using `rtse-pool` for OS threads (the raw-thread lint still
    //! applies); this module exists so protocol models and sync tests
    //! can spawn model threads through one import path.

    #[cfg(rtse_loom)]
    pub use loom::thread::{spawn, yield_now, JoinHandle};

    #[cfg(not(rtse_loom))]
    pub use std::thread::{spawn, yield_now, JoinHandle};
}

pub mod model {
    //! Entry point for protocol models: exhaustive exploration under the
    //! loom backend, a bounded stress loop otherwise — so the same test
    //! source is a model under `--cfg rtse_loom` and a smoke test in a
    //! plain `cargo test` run.

    /// Iterations [`check`] runs per model on the std backend.
    pub const STRESS_ITERS: usize = 200;

    /// Runs `f` under the active backend: every interleaving (bounded
    /// preemptions, see the vendored checker docs) under `rtse_loom`,
    /// [`STRESS_ITERS`] repetitions with OS scheduling otherwise.
    #[cfg(rtse_loom)]
    pub fn check<F: Fn()>(f: F) {
        loom::model(f);
    }

    /// Runs `f` under the active backend: every interleaving (bounded
    /// preemptions, see the vendored checker docs) under `rtse_loom`,
    /// [`STRESS_ITERS`] repetitions with OS scheduling otherwise.
    #[cfg(not(rtse_loom))]
    pub fn check<F: Fn()>(f: F) {
        loom::stress(STRESS_ITERS, f);
    }
}
