//! Kernels: the unit a command queue launches over an ND-range.
//!
//! A [`Kernel`] executes one work-group at a time ([`Kernel::run_group`]);
//! the queue decides how groups are scheduled (Rayon across host threads).
//! Every kernel also reports a [`KernelProfile`] — the architecture-
//! independent workload characterization the simulated backend feeds to the
//! timing model. The dwarf benchmarks implement `Kernel` directly; ad-hoc
//! host programs can wrap a per-work-item closure in [`ClosureKernel`].

use crate::ndrange::{WorkGroup, WorkItem};
use eod_devsim::profile::KernelProfile;
use std::ops::Range;

/// A device kernel.
pub trait Kernel: Sync {
    /// Kernel name, as `clCreateKernel` would know it.
    fn name(&self) -> &str;

    /// Architecture-independent profile of one launch over the range it was
    /// built for. The simulated timing source prices this; wall-clock
    /// timing ignores it.
    fn profile(&self) -> KernelProfile;

    /// Execute all work-items of one work-group, in local-id order.
    ///
    /// Work-groups may run concurrently; as in OpenCL, distinct work-items
    /// must write disjoint buffer elements unless they use atomic
    /// read-modify-write helpers.
    fn run_group(&self, group: &WorkGroup);

    /// How the queue may execute this kernel. Defaults to the per-item
    /// work-group loop; regular elementwise kernels return
    /// [`KernelBody::Vectorized`] to opt into the slice-level fast path
    /// (see [`crate::vecops`]). The per-item path must always stay correct:
    /// it is the reference the equivalence tests compare against
    /// ([`CommandQueue::per_item_reference`](crate::queue::CommandQueue::per_item_reference)).
    fn body(&self) -> KernelBody<'_> {
        KernelBody::PerItem
    }
}

/// The execution shape a kernel exposes to the queue.
pub enum KernelBody<'a> {
    /// Execute via [`Kernel::run_group`], one work-item at a time. The
    /// fallback for irregular dwarfs (nw, nqueens, csr) whose inner loops
    /// don't flatten to contiguous slices.
    PerItem,
    /// Execute via [`VectorizedBody::run_span`] over flat element spans.
    /// Results must be bit-identical to the per-item body's; the queue
    /// always takes this one.
    Vectorized(&'a dyn VectorizedBody),
}

/// Slice-level execution over a flat element domain.
///
/// The dispatcher partitions `0..domain()` into spans aligned to
/// `granularity()` and calls [`run_span`](Self::run_span) for each —
/// sequentially when the launch is inline, from worker threads otherwise.
/// Implementations must make each span's writes independent of how the
/// domain was partitioned: every element's value may depend only on its
/// own index (plus read-only inputs), and any in-span reduction must use a
/// fixed association order. That is what keeps vectorized results
/// bit-identical to the per-item path under any thread count.
pub trait VectorizedBody: Sync {
    /// Number of flat elements, *without* work-group padding. The per-item
    /// path pads the ND-range to the work-group multiple and guards; the
    /// vectorized path iterates exactly the real domain.
    fn domain(&self) -> usize;

    /// Span-boundary alignment in elements (e.g. a row length, so a 2D
    /// stencil sees whole rows). Must evenly divide `domain()`. Default 1.
    fn granularity(&self) -> usize {
        1
    }

    /// Execute all elements in `span` (a subrange of `0..domain()`, aligned
    /// to `granularity()` except possibly at `domain()` itself).
    fn run_span(&self, span: Range<usize>);
}

/// A kernel seen through its per-item body only: [`Kernel::body`] is
/// [`KernelBody::PerItem`] whatever the wrapped kernel exposes. The
/// reference queue wraps every launch in it.
pub(crate) struct PerItem<'a>(pub(crate) &'a dyn Kernel);

impl Kernel for PerItem<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn profile(&self) -> KernelProfile {
        self.0.profile()
    }

    fn run_group(&self, group: &WorkGroup) {
        self.0.run_group(group);
    }
}

/// A kernel defined by a per-work-item closure.
///
/// Useful for host programs and tests; the dwarf benchmarks implement
/// [`Kernel`] directly so they can compute exact profiles.
pub struct ClosureKernel<F: Fn(&WorkItem) + Sync> {
    name: String,
    profile: KernelProfile,
    f: F,
}

impl<F: Fn(&WorkItem) + Sync> ClosureKernel<F> {
    /// Wrap a closure. `work_items` seeds a minimal default profile (one
    /// flop and eight bytes of traffic per item); use
    /// [`ClosureKernel::with_profile`] for a faithful one.
    pub fn new(name: impl Into<String>, work_items: u64, f: F) -> Self {
        let name = name.into();
        let mut profile = KernelProfile::new(name.clone());
        profile.work_items = work_items.max(1);
        profile.flops = work_items as f64;
        profile.bytes_read = work_items as f64 * 4.0;
        profile.bytes_written = work_items as f64 * 4.0;
        profile.working_set = work_items * 8;
        Self { name, profile, f }
    }

    /// Replace the default profile with an exact one.
    pub fn with_profile(mut self, profile: KernelProfile) -> Self {
        self.profile = profile;
        self
    }
}

impl<F: Fn(&WorkItem) + Sync> Kernel for ClosureKernel<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn profile(&self) -> KernelProfile {
        self.profile.clone()
    }

    fn run_group(&self, group: &WorkGroup) {
        group.for_each_item(|item| (self.f)(item));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ndrange::NdRange;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn closure_kernel_visits_all_items() {
        let counter = AtomicUsize::new(0);
        let k = ClosureKernel::new("count", 64, |_item: &WorkItem| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        let range = NdRange::d1(64, 8);
        for g in range.work_groups() {
            k.run_group(&g);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert_eq!(k.name(), "count");
    }

    #[test]
    fn default_profile_is_valid() {
        let k = ClosureKernel::new("x", 128, |_item: &WorkItem| {});
        let p = k.profile();
        assert!(p.validate().is_ok());
        assert_eq!(p.work_items, 128);
    }

    #[test]
    fn default_body_is_per_item() {
        let k = ClosureKernel::new("x", 4, |_item: &WorkItem| {});
        assert!(matches!(k.body(), KernelBody::PerItem));
    }

    #[test]
    fn with_profile_overrides() {
        let mut custom = KernelProfile::new("y");
        custom.flops = 999.0;
        custom.work_items = 4;
        let k = ClosureKernel::new("y", 4, |_item: &WorkItem| {}).with_profile(custom);
        assert_eq!(k.profile().flops, 999.0);
    }
}
