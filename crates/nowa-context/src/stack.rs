//! Fiber stacks: guarded anonymous mappings with optional `madvise` release.
//!
//! Each stack is one `mmap` region: a `PROT_NONE` guard page at the low end
//! (stacks grow downward) followed by the usable area. The paper's
//! evaluation uses 1 MiB stacks and 4 KiB pages; those are the defaults.
//!
//! The `madvise` experiments (§V-B, Fig. 8 and Table II) are driven by
//! [`MadvisePolicy`]: when a stack is released while holding a suspended
//! frame above, or recycled into a pool, the runtime may tell the kernel
//! that the pages are unused — trading refault cost for resident-set size.

use core::ffi::c_void;
use core::ptr::NonNull;

use crate::sys::{self, Advice, SysError, PAGE_SIZE};

/// How (and whether) unused stack space is returned to the kernel.
///
/// Reproduces the §V-B knob: Fibril/Nowa were adjusted to *not* unmap unused
/// stack space for the Fig. 7 comparison, and Fig. 8/Table II measure the
/// cost of turning it back on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MadvisePolicy {
    /// Never advise; pages stay resident (the Fig. 7 configuration).
    #[default]
    Keep,
    /// `MADV_FREE`: lazy reclaim (the Fig. 8 "w/ madvise()" configuration).
    Free,
    /// `MADV_DONTNEED`: immediate reclaim (Yang & Mellor-Crummey's original
    /// choice).
    DontNeed,
}

impl MadvisePolicy {
    /// Parses the policy names used by the harness CLI.
    pub fn parse(name: &str) -> Option<MadvisePolicy> {
        match name {
            "keep" => Some(MadvisePolicy::Keep),
            "free" => Some(MadvisePolicy::Free),
            "dontneed" => Some(MadvisePolicy::DontNeed),
            _ => None,
        }
    }

    fn advice(self) -> Option<Advice> {
        match self {
            MadvisePolicy::Keep => None,
            MadvisePolicy::Free => Some(Advice::Free),
            MadvisePolicy::DontNeed => Some(Advice::DontNeed),
        }
    }
}

/// Typed error for fallible stack allocation.
///
/// Carries enough context for the caller to decide between retrying,
/// degrading (shrink caches, reuse pooled stacks) and giving up. The raw
/// errno is preserved so transient (`EAGAIN`) and hard (`ENOMEM`) failures
/// stay distinguishable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackError {
    /// The anonymous mapping (or its guard-page `mprotect`) failed.
    Map {
        /// Usable bytes that were requested.
        usable: usize,
        /// Raw errno from the kernel.
        errno: i32,
    },
    /// Bounded retry with backpressure gave up.
    Exhausted {
        /// Map attempts made before giving up.
        attempts: u32,
        /// errno of the last failed attempt.
        errno: i32,
    },
}

impl core::fmt::Display for StackError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StackError::Map { usable, errno } => {
                write!(
                    f,
                    "mapping a {usable}-byte fiber stack failed (errno {errno})"
                )
            }
            StackError::Exhausted { attempts, errno } => write!(
                f,
                "fiber stack allocation exhausted after {attempts} attempts (last errno {errno})"
            ),
        }
    }
}

impl std::error::Error for StackError {}

/// An owned fiber stack.
///
/// Dropping unmaps the region. Stacks are usually recycled through a
/// [`StackPool`](crate::pool::StackPool) instead of being dropped.
///
/// Two words, and `Option<Stack>` is the same two words: the non-null
/// base is the niche. Every hand-off slot a spawn moves a stack through
/// is an `Option<Stack>`, so a `None` costs no tag word.
#[derive(Debug)]
pub struct Stack {
    /// Low end of the mapping (the guard page).
    base: NonNull<u8>,
    /// Total mapping length including the guard page.
    len: usize,
}

// SAFETY: a `Stack` is just an owned mapping (base + len); nothing in it is
// thread-affine, and ownership transfer is exactly how continuations migrate
// between workers.
unsafe impl Send for Stack {}

impl Stack {
    /// Maps a stack whose *usable* size is at least `usable` bytes
    /// (rounded up to whole pages), plus one guard page.
    pub fn map(usable: usize) -> Result<Stack, SysError> {
        let usable = usable.div_ceil(PAGE_SIZE).max(1) * PAGE_SIZE;
        let len = usable + PAGE_SIZE;
        // SAFETY: fresh anonymous mapping with a length we computed; no
        // existing memory is affected.
        let base = unsafe {
            sys::mmap(
                len,
                sys::prot::READ | sys::prot::WRITE,
                sys::map::PRIVATE | sys::map::ANONYMOUS | sys::map::NORESERVE,
            )?
        } as *mut u8;
        // A successful anonymous mapping never starts at address 0 (the
        // kernel keeps `mmap_min_addr` unmapped).
        let base = NonNull::new(base).expect("mmap returned address 0");
        // Low page becomes the guard: stacks grow downward into it on
        // overflow, faulting instead of corrupting a neighbour.
        let low = base.as_ptr() as *mut c_void;
        // SAFETY: `base..base+PAGE_SIZE` is the low page of the mapping we
        // just created and nothing points into it yet.
        if let Err(e) = unsafe { sys::mprotect(low, PAGE_SIZE, sys::prot::NONE) } {
            // SAFETY: unmapping the region we just mapped; it was never
            // published.
            unsafe {
                let _ = sys::munmap(low, len);
            }
            return Err(e);
        }
        crate::signal::register_stack(base.as_ptr() as usize, len);
        Ok(Stack { base, len })
    }

    /// Fallible variant of [`Stack::map`] with a typed error.
    pub fn try_map(usable: usize) -> Result<Stack, StackError> {
        Stack::map(usable).map_err(|e| StackError::Map { usable, errno: e.0 })
    }

    /// The high end of the usable area — the initial stack pointer.
    #[inline]
    pub fn top(&self) -> *mut c_void {
        // SAFETY: `base + len` is one-past-the-end of the owned mapping —
        // in bounds for pointer arithmetic.
        unsafe { self.base.as_ptr().add(self.len) as *mut c_void }
    }

    /// The low end of the usable area (just above the guard page).
    #[inline]
    pub fn usable_base(&self) -> *mut u8 {
        // SAFETY: the mapping is at least one page plus the guard page, so
        // `base + PAGE_SIZE` stays in bounds.
        unsafe { self.base.as_ptr().add(PAGE_SIZE) }
    }

    /// Usable bytes between guard page and top.
    #[inline]
    pub fn usable_len(&self) -> usize {
        self.len - PAGE_SIZE
    }

    /// True if `sp` points into this stack's usable area.
    pub fn contains(&self, sp: *mut c_void) -> bool {
        let sp = sp as usize;
        let lo = self.usable_base() as usize;
        let hi = self.top() as usize;
        lo <= sp && sp <= hi
    }

    /// Tells the kernel the *entire* usable area is unused (the stack holds
    /// no live frames). Used when recycling through a pool.
    pub fn release_all(&self, policy: MadvisePolicy) {
        if let Some(advice) = policy.advice() {
            // SAFETY: the range is the usable area of the owned mapping, and
            // the caller asserts no live frames occupy it.
            unsafe {
                let _ = sys::madvise(self.usable_base() as *mut c_void, self.usable_len(), advice);
            }
        }
    }

    /// Tells the kernel the area *below* `sp` is unused — the paper's
    /// practical cactus-stack solution applied to a suspended frame: the
    /// frames above `sp` stay resident, everything deeper is released.
    pub fn release_below(&self, sp: *mut c_void, policy: MadvisePolicy) {
        let Some(advice) = policy.advice() else {
            return;
        };
        let sp = sp as usize;
        let lo = self.usable_base() as usize;
        // Round down to a page boundary; the partial page holding `sp`
        // itself stays mapped.
        let hi = (sp / PAGE_SIZE) * PAGE_SIZE;
        if hi > lo {
            // SAFETY: `lo..hi` lies inside the owned mapping, strictly below
            // the page holding `sp`, so no live frame is touched.
            unsafe {
                let _ = sys::madvise(lo as *mut c_void, hi - lo, advice);
            }
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        crate::signal::unregister_stack(self.base.as_ptr() as usize);
        // SAFETY: `Drop` has exclusive ownership of the mapping; nothing can
        // reference it afterwards.
        unsafe {
            let _ = sys::munmap(self.base.as_ptr() as *mut c_void, self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_touch() {
        let stack = Stack::map(64 * 1024).unwrap();
        assert_eq!(stack.usable_len(), 64 * 1024);
        // SAFETY: writing within the freshly mapped usable area.
        unsafe {
            // Touch the whole usable area.
            core::ptr::write_bytes(stack.usable_base(), 0xAB, stack.usable_len());
        }
        assert!(stack.contains(stack.top()));
        assert!(stack.contains(stack.usable_base() as *mut c_void));
        assert!(!stack.contains((stack.usable_base() as usize - 1) as *mut c_void));
    }

    #[test]
    fn rounding_to_pages() {
        let stack = Stack::map(1).unwrap();
        assert_eq!(stack.usable_len(), PAGE_SIZE);
    }

    #[test]
    fn release_all_dontneed_zeroes() {
        let stack = Stack::map(16 * 1024).unwrap();
        // SAFETY: both accesses are single-byte reads/writes inside the
        // mapped usable area.
        unsafe { *stack.usable_base() = 9 };
        stack.release_all(MadvisePolicy::DontNeed);
        // SAFETY: as above; DONTNEED keeps the mapping readable.
        assert_eq!(unsafe { *stack.usable_base() }, 0);
    }

    #[test]
    fn release_below_keeps_upper_frames() {
        let stack = Stack::map(16 * 1024).unwrap();
        let top_word = (stack.top() as usize - 8) as *mut u64;
        // SAFETY: `top-8` and `usable_base` are in-bounds, aligned slots of
        // the mapped usable area.
        unsafe { *top_word = 0xDEAD_BEEF };
        // SAFETY: as above.
        unsafe { *stack.usable_base() = 7 };
        // Pretend a frame is suspended near the top; release everything
        // below an sp two pages under the top.
        let sp = (stack.top() as usize - 2 * PAGE_SIZE) as *mut c_void;
        stack.release_below(sp, MadvisePolicy::DontNeed);
        // SAFETY: reads of the same in-bounds slots; the mapping survives
        // madvise.
        assert_eq!(unsafe { *top_word }, 0xDEAD_BEEF, "upper frames intact");
        // SAFETY: as above.
        assert_eq!(unsafe { *stack.usable_base() }, 0, "lower pages reclaimed");
    }

    #[test]
    fn release_below_keep_policy_is_noop() {
        let stack = Stack::map(16 * 1024).unwrap();
        // SAFETY: in-bounds single-byte write inside the mapped area.
        unsafe { *stack.usable_base() = 7 };
        stack.release_below(stack.top(), MadvisePolicy::Keep);
        // SAFETY: as above; `Keep` touches nothing.
        assert_eq!(unsafe { *stack.usable_base() }, 7);
    }

    #[test]
    fn policy_parse() {
        assert_eq!(MadvisePolicy::parse("keep"), Some(MadvisePolicy::Keep));
        assert_eq!(MadvisePolicy::parse("free"), Some(MadvisePolicy::Free));
        assert_eq!(
            MadvisePolicy::parse("dontneed"),
            Some(MadvisePolicy::DontNeed)
        );
        assert_eq!(MadvisePolicy::parse("bogus"), None);
    }
}
