//! Data-parallel helpers on one persistent kernel pool.
//!
//! The packed GEMM / convolution kernel ([`crate::packed`]) shares its
//! column strips out over [`worker_count`] threads, and row-wise kernels
//! such as max pooling split their rows with [`par_chunks_mut`]. Both queue
//! their pieces on the same primitive (the private `pool` module): the
//! calling thread takes pieces off the queue alongside `worker_count() - 1`
//! helper threads that are created once, by the first call that shares work
//! out, and park when idle. Handing a job to a helper that is still
//! watching costs about a microsecond; calls too small for two threads to
//! finish sooner than one stay on the calling thread.

mod pool;

pub(crate) use pool::for_each;

/// What the machine's own parallelism is capped at: the kernels here stop
/// scaling beyond that for the layer sizes DroNet uses.
const MAX_DETECTED_WORKERS: usize = 8;
/// Ceiling on `DRONET_THREADS`: every worker but the caller is a thread
/// that lives as long as the process.
const MAX_REQUESTED_WORKERS: usize = 64;

/// Pieces queued per worker by the kernels that share work out. More than
/// one, so that the split evens itself out when a helper joins late (a
/// parked one takes tens of microseconds to wake) or is descheduled: the
/// others take more pieces.
pub(crate) const SHARES_PER_WORKER: usize = 8;

/// Returns the number of worker threads to use for data-parallel kernels.
///
/// Respects the `DRONET_THREADS` environment variable when set to a positive
/// integer (at most 64); otherwise uses the machine's available parallelism,
/// capped at 8.
///
/// The value is resolved once per process and cached: reading an environment
/// variable allocates a `String`, and this function sits on the per-layer
/// kernel hot path where steady-state forwards must stay allocation-free.
pub fn worker_count() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        resolve_workers(std::env::var("DRONET_THREADS").ok().as_deref(), available)
    })
}

/// [`worker_count`] before caching: `requested` is the value of
/// `DRONET_THREADS`, `available` the machine's parallelism. Zero or garbage
/// requests nothing.
fn resolve_workers(requested: Option<&str>, available: usize) -> usize {
    match requested.and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n > 0 => n.min(MAX_REQUESTED_WORKERS),
        _ => available.clamp(1, MAX_DETECTED_WORKERS),
    }
}

/// Splits `0..len` into at most `workers` contiguous ranges of nearly equal
/// size. Returns no range for an empty input.
pub fn split_ranges(len: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 || workers == 0 {
        return Vec::new();
    }
    let workers = workers.min(len);
    let base = len / workers;
    let extra = len % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0usize;
    for i in 0..workers {
        let sz = base + usize::from(i < extra);
        ranges.push(start..start + sz);
        start += sz;
    }
    ranges
}

/// Runs `f` over disjoint mutable chunks of `out` that together cover its
/// `total_rows` rows of `row_len` elements each; chunks are processed on
/// several threads when profitable, the calling thread among them.
///
/// `f(range, chunk)` receives the row range the chunk covers and the mutable
/// slice backing those rows.
///
/// # Panics
///
/// Panics if `out.len() != total_rows * row_len`.
pub fn par_chunks_mut<F>(out: &mut [f32], total_rows: usize, row_len: usize, f: F)
where
    F: Fn(std::ops::Range<usize>, &mut [f32]) + Sync,
{
    assert_eq!(
        out.len(),
        total_rows * row_len,
        "par_chunks_mut: buffer size {} does not cover {total_rows} rows x {row_len}",
        out.len()
    );
    let workers = worker_count();
    // Below this many elements two threads finish no sooner than one; run
    // inline. Sized for the cheapest caller, 2x2 max pooling at about a
    // nanosecond per output: DroNet-352's first pool (248 K outputs) takes
    // 0.6x the time shared out, its second (62 K) the same either way
    // (EXPERIMENTS.md, "PR 19").
    const PAR_THRESHOLD: usize = 128 * 1024;
    if workers <= 1 || out.len() < PAR_THRESHOLD || total_rows < 2 {
        f(0..total_rows, out);
        return;
    }
    let mut rest = out;
    let chunks = split_ranges(total_rows, SHARES_PER_WORKER * workers)
        .into_iter()
        .map(|range| {
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(range.len() * row_len);
            rest = tail;
            (range, chunk)
        })
        .collect();
    for_each(chunks, |(range, chunk)| f(range, chunk));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_covers_everything_exactly_once() {
        for len in [0usize, 1, 5, 16, 17, 1000] {
            for workers in [1usize, 2, 3, 8, 64] {
                let ranges = split_ranges(len, workers);
                let mut covered = vec![false; len];
                for r in &ranges {
                    for i in r.clone() {
                        assert!(!covered[i], "index {i} covered twice");
                        covered[i] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "len={len} workers={workers}");
                // Balanced: sizes differ by at most one.
                if !ranges.is_empty() {
                    let sizes: Vec<_> = ranges.iter().map(|r| r.len()).collect();
                    let mx = *sizes.iter().max().unwrap();
                    let mn = *sizes.iter().min().unwrap();
                    assert!(mx - mn <= 1);
                }
            }
        }
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_rows() {
        let rows = 100;
        let row_len = 257;
        let mut buf = vec![0.0f32; rows * row_len];
        par_chunks_mut(&mut buf, rows, row_len, |range, chunk| {
            for (local, row) in range.clone().enumerate() {
                for x in &mut chunk[local * row_len..(local + 1) * row_len] {
                    *x = row as f32;
                }
            }
        });
        for row in 0..rows {
            for col in 0..row_len {
                assert_eq!(buf[row * row_len + col], row as f32);
            }
        }
    }

    #[test]
    fn par_chunks_mut_small_input_runs_inline() {
        let mut buf = vec![0.0f32; 4];
        par_chunks_mut(&mut buf, 2, 2, |range, chunk| {
            assert_eq!(range, 0..2);
            chunk.fill(1.0);
        });
        assert_eq!(buf, vec![1.0; 4]);
    }

    /// Above the inline threshold the chunks tile the rows exactly once, and
    /// the calling thread is a worker too: it runs at least one of them (all
    /// of them, when the machine has a single worker).
    #[test]
    fn par_chunks_mut_tiles_the_rows_and_the_caller_works_too() {
        let rows = 512;
        let row_len = 1024;
        let mut buf = vec![-1.0f32; rows * row_len];
        let chunks = std::sync::Mutex::new(Vec::new());
        par_chunks_mut(&mut buf, rows, row_len, |range, chunk| {
            assert_eq!(chunk.len(), range.len() * row_len);
            let record = (range.clone(), std::thread::current().id());
            chunks.lock().unwrap().push(record);
            for (row, values) in range.zip(chunk.chunks_exact_mut(row_len)) {
                values.fill(row as f32);
            }
        });
        let mut chunks = chunks.into_inner().unwrap();
        let me = std::thread::current().id();
        assert!(chunks.iter().any(|(_, thread)| *thread == me));
        if worker_count() == 1 {
            assert!(chunks.iter().all(|(_, thread)| *thread == me));
        }
        chunks.sort_by_key(|(range, _)| range.start);
        let mut next = 0;
        for (range, _) in &chunks {
            assert_eq!(range.start, next, "a gap or an overlap before row {next}");
            next = range.end;
        }
        assert_eq!(next, rows);
        for (row, values) in buf.chunks_exact(row_len).enumerate() {
            assert!(values.iter().all(|&v| v == row as f32), "row {row}");
        }
    }

    #[test]
    fn dronet_threads_is_clamped_and_garbage_means_the_default() {
        for (requested, available, want) in [
            (None, 1, 1),
            (None, 2, 2),
            (None, 8, 8),
            (None, 96, 8), // the machine's own parallelism is capped at 8
            (None, 0, 1),
            (Some("1"), 16, 1),
            (Some("3"), 2, 3),
            (Some("12"), 2, 12), // an explicit request may exceed that cap
            (Some("64"), 2, 64),
            (Some("65"), 2, 64), // ... but not the ceiling
            (Some("100000"), 2, 64),
            (Some("18446744073709551615"), 2, 64),
            (Some("18446744073709551616"), 2, 2), // does not parse: default
            (Some("0"), 4, 4),
            (Some(""), 4, 4),
            (Some("-2"), 4, 4),
            (Some("two"), 4, 4),
            (Some(" 2"), 4, 4),
            (Some("2.0"), 4, 4),
        ] {
            assert_eq!(
                resolve_workers(requested, available),
                want,
                "DRONET_THREADS={requested:?} on {available} CPUs"
            );
        }
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }
}
