//! Recycled activation storage for the inference hot path.

/// A small pool of recycled `Vec<f32>` buffers for layer activations.
///
/// Large allocations (glibc's dynamic mmap threshold tops out at 32 MiB —
/// any early-conv activation at batch ≥ 4) are served by a fresh `mmap`
/// and released with `munmap` on drop, so allocating them anew each
/// forward pass pays the full soft-page-fault cost of touching every page
/// again. Small allocations are recycled warm by the allocator anyway;
/// big ones are not. Pooling evens that out: a batched forward reuses the
/// same mapped, faulted-in pages pass after pass, which is where a
/// serving micro-batch stops losing to eight batch-1 forwards whose
/// ~16 MiB activations the allocator happened to recycle for free.
///
/// Buffers are handed out with **stale contents** (only grown tails are
/// zero-filled); callers must fully overwrite what they take, as the fused
/// convolution ([`conv2d`](dronet_tensor::packed::conv2d) assigns every
/// output without reading it) and the pooling kernels do. Activations are
/// all the pool holds: inference convolutions need no column matrix and no
/// other heap scratch.
#[derive(Debug, Default)]
pub struct ActivationPool {
    bufs: Vec<Vec<f32>>,
}

/// Cloning a network must not deep-copy cached scratch memory: a clone
/// starts with an empty pool and warms up its own.
impl Clone for ActivationPool {
    fn clone(&self) -> Self {
        ActivationPool::default()
    }
}

impl ActivationPool {
    /// Buffers retained before the smallest is dropped; covers the input
    /// plus the few distinct large activation sizes of a conv ladder.
    const MAX_BUFS: usize = 4;

    /// Takes a buffer of exactly `len` elements, reusing the
    /// smallest-fitting pooled buffer when one exists.
    ///
    /// Contents are unspecified (stale activations, or zeros when freshly
    /// allocated); the caller must overwrite every element.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut best: Option<usize> = None;
        for (i, b) in self.bufs.iter().enumerate() {
            if b.capacity() >= len
                && best.is_none_or(|j: usize| self.bufs[j].capacity() > b.capacity())
            {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                let mut v = self.bufs.swap_remove(i);
                if v.len() > len {
                    v.truncate(len);
                } else {
                    v.resize(len, 0.0);
                }
                v
            }
            None => vec![0.0; len],
        }
    }

    /// Returns a buffer to the pool. When full, the smallest buffer is
    /// dropped — the big early-layer activations are the expensive ones
    /// to recreate.
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        self.bufs.push(buf);
        if self.bufs.len() > Self::MAX_BUFS {
            let smallest = self
                .bufs
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i)
                .expect("pool is non-empty");
            self.bufs.swap_remove(smallest);
        }
    }

    /// Drops every pooled buffer, releasing the memory to the allocator.
    pub fn clear(&mut self) {
        self.bufs.clear();
    }

    /// Total f32 capacity currently held.
    pub fn held(&self) -> usize {
        self.bufs.iter().map(Vec::capacity).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_prefers_smallest_fitting_buffer() {
        let mut pool = ActivationPool::default();
        pool.give(vec![1.0; 100]);
        pool.give(vec![2.0; 10]);
        let v = pool.take(8);
        assert_eq!(v.len(), 8);
        assert!(
            v.capacity() >= 10 && v.capacity() < 100,
            "picked the small buffer"
        );
        assert_eq!(v[0], 2.0, "contents are stale, not zeroed");
    }

    #[test]
    fn take_grows_and_zero_fills_the_tail() {
        let mut pool = ActivationPool::default();
        pool.give({
            let mut v = Vec::with_capacity(32);
            v.extend_from_slice(&[7.0; 4]);
            v
        });
        let v = pool.take(16);
        assert_eq!(v.len(), 16);
        assert_eq!(&v[..4], &[7.0; 4]);
        assert_eq!(&v[4..], &[0.0; 12]);
    }

    #[test]
    fn misses_allocate_zeroed() {
        let mut pool = ActivationPool::default();
        assert_eq!(pool.take(5), vec![0.0; 5]);
    }

    #[test]
    fn pool_is_bounded_and_keeps_the_largest() {
        let mut pool = ActivationPool::default();
        for len in [1usize, 2, 3, 4, 5, 6] {
            pool.give(vec![0.0; len * 100]);
        }
        assert!(pool.bufs.len() <= ActivationPool::MAX_BUFS);
        let max_cap = pool.bufs.iter().map(Vec::capacity).max().unwrap();
        assert!(max_cap >= 600, "largest buffer survived eviction");
        pool.clear();
        assert_eq!(pool.held(), 0);
    }

    #[test]
    fn clones_start_empty() {
        let mut pool = ActivationPool::default();
        pool.give(vec![0.0; 64]);
        assert_eq!(pool.clone().held(), 0);
        assert!(pool.held() >= 64);
    }
}
