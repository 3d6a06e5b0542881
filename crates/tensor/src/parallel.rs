//! Minimal data-parallel helpers built on `std` scoped threads.
//!
//! The packed GEMM / convolution kernel ([`crate::packed`]) shares its
//! column strips out over [`worker_count`] threads, and row-wise kernels
//! such as max pooling split their rows with [`par_chunks_mut`]; in both the
//! calling thread works too, so `n` workers cost `n - 1` spawns. There is
//! deliberately no persistent thread pool yet: scoped threads keep the API
//! free of `'static` bounds and shared mutable state, at the price of a
//! spawn (tens of microseconds) per parallel kernel call, which is why
//! small calls stay on the calling thread.

/// Returns the number of worker threads to use for data-parallel kernels.
///
/// Respects the `DRONET_THREADS` environment variable when set to a positive
/// integer; otherwise uses the machine's available parallelism, capped at 8
/// (the kernels here stop scaling beyond that for the layer sizes DroNet
/// uses).
///
/// The value is resolved once per process and cached: reading an environment
/// variable allocates a `String`, and this function sits on the per-layer
/// kernel hot path where steady-state forwards must stay allocation-free.
pub fn worker_count() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        if let Ok(v) = std::env::var("DRONET_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    })
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

/// Runs `f` over disjoint mutable chunks of `out`, where chunk `i` covers
/// `rows[i]` rows of `row_len` elements each; chunks are processed on
/// separate threads when profitable.
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
    // Below this many elements the spawn overhead dominates; run inline.
    // Sized for the cheapest caller, 2x2 max pooling at about a nanosecond
    // per output: a quarter of a millisecond of work, ten spawns' worth.
    const PAR_THRESHOLD: usize = 256 * 1024;
    if workers <= 1 || out.len() < PAR_THRESHOLD || total_rows < 2 {
        f(0..total_rows, out);
        return;
    }
    let mut ranges = split_ranges(total_rows, workers);
    let last = ranges.pop().expect("total_rows >= 2 yields a range");
    std::thread::scope(|s| {
        let mut rest = out;
        for range in ranges {
            let (chunk, tail) = rest.split_at_mut(range.len() * row_len);
            rest = tail;
            let f = &f;
            s.spawn(move || f(range, chunk));
        }
        // The calling thread is a worker too: it takes the last chunk
        // instead of idling in the join.
        f(last, rest);
    });
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

    /// `n` workers cost `n - 1` spawns: above the inline threshold the
    /// caller still runs exactly one chunk itself (the only one, when the
    /// machine has a single worker), and the chunks tile the rows.
    #[test]
    fn par_chunks_mut_runs_one_chunk_on_the_calling_thread() {
        let rows = 512;
        let row_len = 1024;
        let mut buf = vec![-1.0f32; rows * row_len];
        let threads = std::sync::Mutex::new(Vec::new());
        par_chunks_mut(&mut buf, rows, row_len, |range, chunk| {
            threads.lock().unwrap().push(std::thread::current().id());
            for (row, values) in range.zip(chunk.chunks_exact_mut(row_len)) {
                values.fill(row as f32);
            }
        });
        let threads = threads.into_inner().unwrap();
        assert_eq!(threads.len(), worker_count().min(rows));
        let me = std::thread::current().id();
        assert_eq!(threads.iter().filter(|&&id| id == me).count(), 1);
        for (row, values) in buf.chunks_exact(row_len).enumerate() {
            assert!(values.iter().all(|&v| v == row as f32), "row {row}");
        }
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }
}
