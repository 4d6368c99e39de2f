//! Shared `--runtime` / `--workers <K>` plumbing: the figure binaries can
//! route their computations through the [`dwi_runtime`] scheduler instead
//! of running inline, with byte-identical output — the runtime's sharding
//! and merging are bit-exact (see `crates/core/tests/shard_determinism.rs`),
//! so the flag changes *where* the work runs, never *what* it prints.
//!
//! `--async [--inflight N]` routes every submission through a
//! [`Session`](dwi_runtime::Session) completion queue instead of parking
//! on the job handle. That preserves byte-identical output too (the async
//! path changes only *how* a result is harvested), which is exactly what
//! the CI parity diffs pin.
//!
//! `--cache-dir <DIR>` turns the result cache on *with a durable disk
//! tier underneath*: evictions spill to checksummed `.dwic` files and a
//! rerun over the same directory promotes them back, so a figure sweep
//! repeated across processes keeps its hit rate. Parameter digests in
//! the graph fingerprint keep distinct kernel configurations under one
//! name apart, so caching no longer has to stay off for correctness —
//! and hits return the *same bytes* a cold run computes, which the CI
//! warm-restart parity diff pins.

use std::time::Duration;

use dwi_runtime::{JobError, JobOutput, JobSpec, Runtime, RuntimeConfig};

/// The scheduler flags of a figure binary.
#[derive(Debug, Default, Clone)]
pub struct RuntimeArgs {
    /// `--runtime`: execute through a [`Runtime`] worker pool.
    pub enabled: bool,
    /// `--workers <K>`: pool size (default 4).
    pub workers: Option<usize>,
    /// `--async`: harvest results through a session completion queue
    /// instead of blocking on each job handle.
    pub use_async: bool,
    /// `--inflight <N>`: session pipelining depth for `--async`
    /// (default 256; the figure binaries submit one job at a time, so
    /// this only matters to tools that reuse [`Pool::submit_and_wait`]
    /// from a pipelined loop).
    pub inflight: usize,
    /// `--cache-dir <DIR>`: enable the result cache with the durable
    /// disk tier spilling into `DIR` (off by default — without a
    /// directory the figure binaries keep caching disabled, preserving
    /// their historical single-pass behaviour).
    pub cache_dir: Option<std::path::PathBuf>,
}

impl RuntimeArgs {
    /// Parse the scheduler flags from `std::env::args`, ignoring
    /// anything else (composes with [`crate::obs::ObsArgs`], which ignores
    /// these flags in turn).
    pub fn from_env() -> Self {
        let mut out = Self {
            inflight: 256,
            ..Self::default()
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--runtime" => out.enabled = true,
                "--workers" => {
                    out.workers = args
                        .next()
                        .map(|w| w.parse().expect("--workers takes a count"))
                }
                "--async" => out.use_async = true,
                "--cache-dir" => out.cache_dir = args.next().map(Into::into),
                "--inflight" => {
                    out.inflight = args
                        .next()
                        .map(|n| n.parse().expect("--inflight takes a job count"))
                        .unwrap_or(256)
                }
                _ => {}
            }
        }
        out
    }

    /// Worker count to use (default 4).
    pub fn workers(&self) -> usize {
        self.workers.unwrap_or(4)
    }

    /// The pool configuration these flags describe. Caching stays off
    /// unless `--cache-dir` asks for the durable tier: graph-fingerprint
    /// parameter digests keep distinct kernel configurations apart, so
    /// this is a single-pass-economy default, not a correctness rule.
    pub fn config(&self) -> RuntimeConfig {
        let cfg = RuntimeConfig::new(self.workers());
        match &self.cache_dir {
            Some(dir) => cfg.disk_cache(dir.clone()),
            None => cfg.cache_capacity(0),
        }
    }

    /// Build the pool when `--runtime` was passed.
    pub fn build(&self) -> Option<Pool> {
        self.enabled.then(|| Pool {
            rt: Runtime::new(self.config()),
            use_async: self.use_async,
        })
    }

    /// Build the pool with a trace sink attached, so `--runtime` composes
    /// with `--trace`/`--metrics`: the runtime's job timelines, phase
    /// histograms and worker spans land in the same exports as the
    /// engines' own metrics — without perturbing the printed output (the
    /// CI parity diffs pin that).
    pub fn build_with(&self, sink: dwi_trace::TraceSink) -> Option<Pool> {
        self.enabled.then(|| Pool {
            rt: Runtime::new(self.config().trace(sink)),
            use_async: self.use_async,
        })
    }
}

/// A [`Runtime`] plus the submission discipline the flags selected:
/// blocking handles (default) or the [`Session`](dwi_runtime::Session)
/// completion queue (`--async`). Both produce bit-identical results —
/// the async path is the same scheduler reached through a different
/// front door, which is what the CI parity diffs verify.
pub struct Pool {
    rt: Runtime,
    use_async: bool,
}

impl Pool {
    /// The underlying scheduler.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Whether submissions ride the async session front-end.
    pub fn use_async(&self) -> bool {
        self.use_async
    }

    /// Submit one job and wait for its result through whichever front-end
    /// the flags selected. On the async path the job flows through a
    /// session's completion queue (submit → `wait_any` → harvest), so the
    /// parity diffs exercise the whole ticket machinery end to end.
    pub fn submit_and_wait(&self, spec: JobSpec) -> Result<JobOutput, JobError> {
        if self.use_async {
            let mut session = self.rt.session(0);
            let ticket = session.submit_blocking(spec);
            loop {
                for done in session.wait_any(Duration::from_secs(60)) {
                    if done.ticket == ticket {
                        return done.result;
                    }
                }
            }
        } else {
            self.rt.submit_blocking(spec).wait()
        }
    }
}

/// Run `f` on the pool as an opaque task job (when one is given) or inline
/// (when not) — the one-liner the figure binaries wrap each computation in.
pub fn on_pool<T, F>(pool: Option<&Pool>, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    match pool {
        Some(pool) => pool
            .submit_and_wait(JobSpec::task(0, f))
            .expect("task job without deadline cannot fail")
            .into_task::<T>(),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_runs_inline() {
        let args = RuntimeArgs::default();
        assert!(args.build().is_none());
        assert_eq!(on_pool(None, || 41 + 1), 42);
    }

    #[test]
    fn pool_path_returns_the_same_value() {
        let args = RuntimeArgs {
            enabled: true,
            workers: Some(2),
            ..Default::default()
        };
        let pool = args.build().expect("--runtime builds a pool");
        assert_eq!(pool.runtime().workers(), 2);
        assert!(!pool.use_async());
        assert_eq!(on_pool(Some(&pool), || vec![1u64, 2, 3]), vec![1, 2, 3]);
    }

    #[test]
    fn async_pool_path_returns_the_same_value() {
        let args = RuntimeArgs {
            enabled: true,
            workers: Some(2),
            use_async: true,
            inflight: 8,
            ..Default::default()
        };
        let pool = args.build().expect("--runtime --async builds a pool");
        assert!(pool.use_async());
        assert_eq!(on_pool(Some(&pool), || 6 * 7), 42);
    }

    #[test]
    fn cache_dir_enables_both_cache_tiers() {
        let dir = std::env::temp_dir().join(format!("dwi_bench_cache_{}", std::process::id()));
        let args = RuntimeArgs {
            enabled: true,
            cache_dir: Some(dir.clone()),
            ..Default::default()
        };
        let cfg = args.config();
        assert!(cfg.cache_capacity > 0, "memory tier on with --cache-dir");
        assert_eq!(cfg.disk_cache_dir.as_deref(), Some(dir.as_path()));
        // Without the flag the historical single-pass default holds.
        let cfg = RuntimeArgs::default().config();
        assert_eq!(cfg.cache_capacity, 0);
        assert_eq!(cfg.disk_cache_dir, None);
    }
}
