//! Work-group dispatch: how one kernel launch runs on the host.
//!
//! There is one dispatcher. The queue hands every launch to
//! [`run_vectorized`] when the kernel exposes a
//! [`KernelBody::Vectorized`](crate::kernel::KernelBody) body, and to
//! [`run_groups`] otherwise. Both are adaptive: a launch of at most
//! [`INLINE_THRESHOLD`] units runs inline on the enqueuing thread
//! (skipping the Rayon fork-join, which would cost more than the kernel);
//! a larger one fans out across host threads by index.
//!
//! The unit is what the dispatcher can see. For a vectorized body it is
//! an element of the body's domain; for a per-item kernel it is a
//! work-item, however much work each item does. A kernel with few, heavy
//! items (GUPS's 256 chunk owners, crc's 64 pages, dwt's rows and
//! columns) therefore runs on one core unless it exposes a span body
//! whose domain counts its real elements of work.
//!
//! A real-OpenCL port would replace two seams and nothing here: device
//! discovery (`Platform::all`) and launch (the queue's call into this
//! module). Figure CSVs cannot depend on how a launch was scheduled: the
//! modeled event timeline is a pure function of the kernel *profile*, and
//! every vectorized body preserves its per-item counterpart's arithmetic
//! and association order.

use crate::kernel::{Kernel, VectorizedBody};
use crate::ndrange::NdRange;
use rayon::prelude::*;

/// The inline/parallel crossover, in work-items (per-item kernels) or
/// domain elements (vectorized bodies): launches at or under it run
/// inline on the enqueuing thread. Calibrated on the native host (see
/// DESIGN.md §dispatch); to recalibrate on another host, edit the value
/// and rerun `eod bench-engine`.
pub(crate) const INLINE_THRESHOLD: usize = 4096;

/// Whether a launch over `items` work-items runs inline.
pub(crate) fn adaptive_inline(items: usize) -> bool {
    items <= INLINE_THRESHOLD
}

/// The per-item work-group dispatch: every group, in index order when
/// `inline`, or fanned out over the thread pool by group index.
pub(crate) fn run_groups(kernel: &dyn Kernel, range: &NdRange, inline: bool) {
    let n = range.group_count();
    if inline || n <= 1 {
        for group in range.work_groups() {
            kernel.run_group(&group);
        }
    } else {
        (0..n)
            .into_par_iter()
            .for_each(|flat| kernel.run_group(&range.group_at(flat)));
    }
}

/// The slice-span dispatch (the vectorized path). Spans are disjoint and
/// aligned to the body's granularity, so `run_span` implementations may
/// mutably borrow exactly the elements they own.
pub(crate) fn run_vectorized(body: &dyn VectorizedBody, inline: bool) {
    let n = body.domain();
    if n == 0 {
        return;
    }
    let gran = body.granularity().max(1);
    let units = n.div_ceil(gran);
    if inline || units <= 1 {
        body.run_span(0..n);
        return;
    }
    // Spans per worker > 1 so work-stealing can balance uneven spans
    // without fragmenting into per-unit tasks.
    let workers = std::thread::available_parallelism().map_or(4, |w| w.get());
    let spans = (workers * 4).min(units);
    let units_per_span = units.div_ceil(spans);
    (0..spans).into_par_iter().for_each(|s| {
        let lo = (s * units_per_span * gran).min(n);
        let hi = ((s + 1) * units_per_span * gran).min(n);
        if lo < hi {
            body.run_span(lo..hi);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct SpanRecorder {
        n: usize,
        gran: usize,
        touched: Vec<AtomicUsize>,
    }

    impl VectorizedBody for SpanRecorder {
        fn domain(&self) -> usize {
            self.n
        }
        fn granularity(&self) -> usize {
            self.gran
        }
        fn run_span(&self, span: Range<usize>) {
            // Span boundaries respect granularity (except the final edge
            // at `domain()` itself).
            assert_eq!(span.start % self.gran, 0, "unaligned span start");
            assert!(span.end == self.n || span.end.is_multiple_of(self.gran));
            for i in span {
                self.touched[i].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn vectorized_dispatch_covers_domain_exactly_once() {
        for (n, gran, inline) in [
            (10_000, 1, false),
            (10_000, 1, true),
            (9_999, 7, false),
            (64, 64, false),
            (100_000, 250, adaptive_inline(100_000)),
            (0, 1, false),
        ] {
            let body = SpanRecorder {
                n,
                gran,
                touched: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            };
            run_vectorized(&body, inline);
            for (i, c) in body.touched.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "element {i}, inline {inline}");
            }
        }
    }
}
