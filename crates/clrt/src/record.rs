//! Recorded commands — what a host program asked of a context and its
//! queue, with everything device-dependent left out.
//!
//! A simulated device never sees a kernel's data, only its
//! [`KernelProfile`]; a transfer is priced from its byte count and an
//! allocation is admitted or refused from its size. So the ordered list of
//! those three facts is all a device needs in order to time a run and to
//! refuse one it has no memory for. A recording context
//! ([`crate::context::Context::recording`]) writes the list while a run
//! executes for real on one device;
//! [`crate::queue::CommandQueue::enqueue_recorded`] prices it on another.

use eod_devsim::profile::KernelProfile;

/// One recorded request, in the order it was made.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// A buffer of `bytes` was allocated in the context.
    Alloc {
        /// Allocation size.
        bytes: u64,
    },
    /// A buffer of `bytes` died and returned its allocation.
    Free {
        /// Allocation size.
        bytes: u64,
    },
    /// `enqueue_write_buffer` over a buffer of `bytes`.
    Write {
        /// Buffer size.
        bytes: u64,
    },
    /// `enqueue_read_buffer` over a buffer of `bytes`.
    Read {
        /// Buffer size.
        bytes: u64,
    },
    /// `enqueue_kernel`: the kernel's name (the event's name) and the
    /// profile it reported for this launch.
    Kernel {
        /// [`crate::kernel::Kernel::name`].
        name: String,
        /// [`crate::kernel::Kernel::profile`] at launch time.
        profile: KernelProfile,
    },
}

impl Command {
    /// Bytes this command holds, heap strings included — what a bounded
    /// store of recordings counts against its budget.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + match self {
                Command::Kernel { name, profile } => name.capacity() + profile.name.capacity(),
                _ => 0,
            }
    }
}
