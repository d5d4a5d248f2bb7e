//! Machine-context capture and switching.
//!
//! Three primitives carry the whole continuation-stealing machinery
//! (§III-B of the Nowa paper):
//!
//! * [`capture_and_run_on`] — capture the current continuation, then run a
//!   diverging body on a *different* stack. Used at **spawn** (capture the
//!   parent's continuation, run the child) and at a failed **explicit sync**
//!   (capture the sync continuation, go stealing). Returns — exactly once —
//!   when someone resumes the captured continuation.
//! * [`resume`] — abandon the current context and resume a captured one,
//!   delivering a payload word. Used by the fast path (continuation not
//!   stolen), by thieves, and by the last-joining child.
//! * [`switch`] — save the current continuation and resume another in one
//!   step (symmetric coroutine switch). Not needed by the scheduler's core
//!   but exposed for tests and for alternative runtimes.
//!
//! # Representation
//!
//! A captured context is a single stack pointer ([`RawContext`]): the
//! callee-saved registers and the resume address live on the context's own
//! stack, exactly where Fibril's `fibril_t` saves them. Resuming pops them
//! and returns into the captured call site, which observes the primitive
//! *returning* with the payload.
//!
//! On x86_64 the body is entered by `jmp`, under a null return address on
//! the new stack: a backtrace taken in the body ends at the fiber base, and
//! the entry pushes nothing onto the CPU's return-stack buffer (RSB). The
//! capture's own `call` pushed one RSB entry; [`resume`] is an inline
//! `asm!` block whose `ret` pops it. So a body that resumes its parent with
//! no call frame of its own outstanding — every helper on the way inlined —
//! keeps the predictor in step: that `ret`, and every later `ret` of the
//! parent, is predicted. One extra frame left open (an out-of-line call into
//! `resume`, or a `call` into the body) shifts the RSB by one entry and
//! makes the parent's next several returns mispredict.
//!
//! # Why this is sound in Rust
//!
//! Unlike `setjmp`, no primitive here ever returns twice: the capture path
//! *diverges* into `body`, and the return path happens once, on resume. The
//! compiler sees an ordinary `extern "C"` call at the capture site and a
//! diverging (`noreturn`) asm block at the resume site. Cross-thread
//! resumption is fenced by the work-stealing deque (release push / acquire
//! steal) or the join counter (`AcqRel`), which the runtime layer is
//! responsible for.
//!
//! # Caveats imposed on callers
//!
//! * `body` must never return; it must eventually [`resume`] some context.
//!   The null return address makes a stray return fault at address 0.
//! * [`resume`] is inlined into its caller. To stay predicted it must be
//!   reached from the body with no call frame outstanding (mark the helpers
//!   between them `#[inline(always)]`); reached through a call it is still
//!   correct, only slower.
//! * Values live across a capture point may be touched by another OS thread
//!   after a steal; the public runtime API restricts them to `Send` data.
//! * Panics must not unwind through these frames; runtime bodies wrap user
//!   code in `catch_unwind`.

use core::ffi::c_void;

/// A captured continuation: the stack pointer under which the callee-saved
/// register set and resume address are spilled.
#[repr(transparent)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawContext(pub *mut c_void);

impl RawContext {
    /// A null context, useful as an initializer before capture.
    pub const fn null() -> RawContext {
        RawContext(core::ptr::null_mut())
    }

    /// True if this context has not been captured yet.
    pub fn is_null(&self) -> bool {
        self.0.is_null()
    }
}

/// The type of the diverging body run on the new stack by
/// [`capture_and_run_on`].
pub type Body = unsafe extern "C" fn(arg: *mut c_void) -> !;

#[cfg(target_arch = "x86_64")]
mod imp {
    use super::*;

    /// Captures the current continuation into `*ctx`, switches to
    /// `stack_top` and calls `body(arg)` there. Returns the resume payload
    /// when `*ctx` is resumed.
    ///
    /// # Safety
    /// `stack_top` must be the high end of a writable region large enough
    /// for `body`; `body` must never return; `*ctx` must be resumed at most
    /// once, and only after this call captured it (the deque push that
    /// publishes `ctx` must be ordered after the capture — the runtime
    /// performs the push *inside* `body`).
    #[unsafe(naked)]
    pub unsafe extern "C" fn capture_and_run_on(
        ctx: *mut RawContext,
        stack_top: *mut c_void,
        body: Body,
        arg: *mut c_void,
    ) -> *mut c_void {
        core::arch::naked_asm!(
            // Spill callee-saved registers below the return address.
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            // Publish the continuation: ctx->sp = rsp.
            "mov [rdi], rsp",
            // Move to the new stack (16-byte aligned for the ABI).
            "mov rsp, rsi",
            "and rsp, -16",
            "xor ebp, ebp",
            // body(arg) — never returns. `jmp` under a null return
            // address: the alignment a `call` leaves, without pushing a
            // return-stack-buffer entry (see the module docs).
            "mov rdi, rcx",
            "push 0",
            "jmp rdx",
        )
    }

    /// Resumes `ctx`, making its capture site return `payload`. Never
    /// returns; the current stack is abandoned as-is.
    ///
    /// Inlined into its caller, so that the closing `ret` can consume the
    /// return-stack-buffer entry of the `call` that captured `ctx` (see
    /// the module docs).
    ///
    /// # Safety
    /// `ctx` must hold a context captured by [`capture_and_run_on`] or
    /// [`switch`] that has not been resumed before, and whose stack is
    /// still intact. Happens-before between the capturing and resuming
    /// threads must be established externally.
    #[inline(always)]
    pub unsafe fn resume(ctx: RawContext, payload: *mut c_void) -> ! {
        // SAFETY: per the contract, `ctx` points at the callee-saved
        // registers and return address its capture spilled; restoring them
        // and returning completes that capture call with `payload` in rax.
        // `rbx` and `rbp` cannot be asm operands, but the block never
        // returns to the code whose registers it overwrites.
        unsafe {
            core::arch::asm!(
                "mov rsp, {ctx}",
                "pop r15",
                "pop r14",
                "pop r13",
                "pop r12",
                "pop rbx",
                "pop rbp",
                "ret",
                ctx = in(reg) ctx.0,
                in("rax") payload,
                options(noreturn),
            )
        }
    }

    /// Saves the current continuation into `*save` and resumes `target`
    /// with `payload`; returns (with the peer's payload) when `*save` is
    /// itself resumed.
    ///
    /// # Safety
    /// Same contract as [`capture_and_run_on`] + [`resume`] combined.
    #[unsafe(naked)]
    pub unsafe extern "C" fn switch(
        save: *mut RawContext,
        target: RawContext,
        payload: *mut c_void,
    ) -> *mut c_void {
        core::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "mov rax, rdx",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }
}

#[cfg(target_arch = "aarch64")]
mod imp {
    use super::*;

    // AAPCS64 callee-saved: x19–x28, fp (x29), lr (x30), d8–d15.
    // Frame layout pushed on capture (20 × 8 = 160 bytes, 16-aligned):
    //   [sp+0]   x19 x20 x21 x22 x23 x24 x25 x26 x27 x28
    //   [sp+80]  fp lr
    //   [sp+96]  d8..d15
    //   resume address = saved lr.

    /// See the x86_64 documentation; identical contract.
    ///
    /// # Safety
    /// Same contract as the x86_64 twin: `stack_top` is the high end of a
    /// writable region large enough for `body`; `body` never returns;
    /// `*ctx` is resumed at most once, after this call captured it.
    #[unsafe(naked)]
    pub unsafe extern "C" fn capture_and_run_on(
        ctx: *mut RawContext,
        stack_top: *mut c_void,
        body: Body,
        arg: *mut c_void,
    ) -> *mut c_void {
        core::arch::naked_asm!(
            "sub sp, sp, #160",
            "stp x19, x20, [sp, #0]",
            "stp x21, x22, [sp, #16]",
            "stp x23, x24, [sp, #32]",
            "stp x25, x26, [sp, #48]",
            "stp x27, x28, [sp, #64]",
            "stp x29, x30, [sp, #80]",
            "stp d8, d9, [sp, #96]",
            "stp d10, d11, [sp, #112]",
            "stp d12, d13, [sp, #128]",
            "stp d14, d15, [sp, #144]",
            "mov x9, sp",
            "str x9, [x0]",
            // New stack, aligned.
            "and x9, x1, #-16",
            "mov sp, x9",
            "mov x29, xzr",
            "mov x30, xzr",
            "mov x0, x3",
            "br x2",
        )
    }

    /// See the x86_64 documentation; identical contract.
    ///
    /// # Safety
    /// Same contract as the x86_64 twin: `ctx` holds an unresumed captured
    /// context whose stack is intact; cross-thread happens-before is the
    /// caller's responsibility.
    #[unsafe(naked)]
    pub unsafe extern "C" fn resume(ctx: RawContext, payload: *mut c_void) -> ! {
        core::arch::naked_asm!(
            "mov x9, x0",
            "mov x0, x1",
            "mov sp, x9",
            "ldp x19, x20, [sp, #0]",
            "ldp x21, x22, [sp, #16]",
            "ldp x23, x24, [sp, #32]",
            "ldp x25, x26, [sp, #48]",
            "ldp x27, x28, [sp, #64]",
            "ldp x29, x30, [sp, #80]",
            "ldp d8, d9, [sp, #96]",
            "ldp d10, d11, [sp, #112]",
            "ldp d12, d13, [sp, #128]",
            "ldp d14, d15, [sp, #144]",
            "add sp, sp, #160",
            "ret",
        )
    }

    /// See the x86_64 documentation; identical contract.
    ///
    /// # Safety
    /// Same contract as the x86_64 twin ([`capture_and_run_on`] +
    /// [`resume`] combined).
    #[unsafe(naked)]
    pub unsafe extern "C" fn switch(
        save: *mut RawContext,
        target: RawContext,
        payload: *mut c_void,
    ) -> *mut c_void {
        core::arch::naked_asm!(
            "sub sp, sp, #160",
            "stp x19, x20, [sp, #0]",
            "stp x21, x22, [sp, #16]",
            "stp x23, x24, [sp, #32]",
            "stp x25, x26, [sp, #48]",
            "stp x27, x28, [sp, #64]",
            "stp x29, x30, [sp, #80]",
            "stp d8, d9, [sp, #96]",
            "stp d10, d11, [sp, #112]",
            "stp d12, d13, [sp, #128]",
            "stp d14, d15, [sp, #144]",
            "mov x9, sp",
            "str x9, [x0]",
            "mov x0, x2",
            "mov sp, x1",
            "ldp x19, x20, [sp, #0]",
            "ldp x21, x22, [sp, #16]",
            "ldp x23, x24, [sp, #32]",
            "ldp x25, x26, [sp, #48]",
            "ldp x27, x28, [sp, #64]",
            "ldp x29, x30, [sp, #80]",
            "ldp d8, d9, [sp, #96]",
            "ldp d10, d11, [sp, #112]",
            "ldp d12, d13, [sp, #128]",
            "ldp d14, d15, [sp, #144]",
            "add sp, sp, #160",
            "ret",
        )
    }
}

pub use imp::{capture_and_run_on, resume, switch};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::Stack;

    /// Body that immediately resumes the captured parent with payload 7.
    // SAFETY: callers pass `arg` pointing at the `RawContext` they captured.
    unsafe extern "C" fn bounce_back(arg: *mut c_void) -> ! {
        let ctx = unsafe { *(arg as *mut RawContext) };
        unsafe { resume(ctx, 7usize as *mut c_void) }
    }

    #[test]
    fn capture_resume_round_trip() {
        let stack = Stack::map(64 * 1024).unwrap();
        let mut ctx = RawContext::null();
        // SAFETY: fresh mapped stack; `bounce_back` diverges into `resume`
        // and resumes `ctx` exactly once.
        let payload = unsafe {
            capture_and_run_on(
                &mut ctx,
                stack.top(),
                bounce_back,
                &mut ctx as *mut RawContext as *mut c_void,
            )
        };
        assert_eq!(payload as usize, 7);
    }

    struct PingPong {
        main: RawContext,
        coro: RawContext,
        trace: Vec<u32>,
    }

    // SAFETY: callers pass `arg` pointing at a live `PingPong` owned by the
    // main context for the whole test.
    unsafe extern "C" fn pingpong_body(arg: *mut c_void) -> ! {
        let state = unsafe { &mut *(arg as *mut PingPong) };
        state.trace.push(1);
        // Switch back to main; main later switches to us again.
        let _ = unsafe { switch(&mut state.coro, state.main, core::ptr::null_mut()) };
        state.trace.push(3);
        let main = state.main;
        unsafe { resume(main, core::ptr::null_mut()) }
    }

    #[test]
    fn symmetric_switch_ping_pong() {
        let stack = Stack::map(64 * 1024).unwrap();
        let mut state = PingPong {
            main: RawContext::null(),
            coro: RawContext::null(),
            trace: Vec::new(),
        };
        // SAFETY: fresh stack; the body switches back to `main` exactly once
        // before this call returns.
        unsafe {
            // First entry: runs body until it switches back.
            capture_and_run_on(
                &mut state.main,
                stack.top(),
                pingpong_body,
                &mut state as *mut PingPong as *mut c_void,
            );
        }
        state.trace.push(2);
        // SAFETY: `state.coro` was captured by the body's switch and is
        // resumed exactly once here.
        unsafe {
            // Re-enter the coroutine; it finishes and resumes us.
            switch(&mut state.main, state.coro, core::ptr::null_mut());
        }
        assert_eq!(state.trace, vec![1, 2, 3]);
    }

    struct DeepState {
        parent: RawContext,
        depth: u64,
    }

    // SAFETY: callers pass `arg` pointing at a live `DeepState`.
    unsafe extern "C" fn deep_body(arg: *mut c_void) -> ! {
        let state = unsafe { &mut *(arg as *mut DeepState) };
        // Burn real stack to prove the new stack is actually in use.
        let sum = recurse(state.depth);
        let parent = state.parent;
        unsafe { resume(parent, sum as *mut c_void) }
    }

    #[inline(never)]
    fn recurse(n: u64) -> u64 {
        let mut pad = [0u64; 16];
        pad[0] = n;
        if n == 0 {
            return 0;
        }
        pad[0] + recurse(n - 1) + std::hint::black_box(pad[15])
    }

    #[test]
    fn body_uses_the_new_stack() {
        let stack = Stack::map(256 * 1024).unwrap();
        let mut state = DeepState {
            parent: RawContext::null(),
            depth: 500,
        };
        // SAFETY: 256 KiB stack covers the depth-500 recursion; `deep_body`
        // diverges into `resume(parent)`.
        let payload = unsafe {
            capture_and_run_on(
                &mut state.parent,
                stack.top(),
                deep_body,
                &mut state as *mut DeepState as *mut c_void,
            )
        };
        assert_eq!(payload as usize as u64, 500 * 501 / 2);
    }

    /// A continuation captured on one OS thread may be resumed by another —
    /// this happens on every steal. The coroutine body runs its first half
    /// on the main thread and its second half on a spawned thread, and the
    /// frame locals must survive the migration.
    #[test]
    fn cross_thread_resume() {
        struct Shared {
            main: RawContext,
            coro: RawContext,
            t2: RawContext,
            value: u64,
        }

        // SAFETY: callers pass `arg` pointing at a `Shared` that outlives
        // both halves of the coroutine (the test joins before dropping it).
        unsafe extern "C" fn body(arg: *mut c_void) -> ! {
            let shared = unsafe { &mut *(arg as *mut Shared) };
            let local = 40u64; // lives in the coroutine frame across threads
            let payload = unsafe { switch(&mut shared.coro, shared.main, core::ptr::null_mut()) };
            // ---- resumed here, by a different OS thread ----
            shared.value = local + payload as usize as u64;
            let t2 = shared.t2;
            unsafe { resume(t2, core::ptr::null_mut()) }
        }

        let stack = Stack::map(64 * 1024).unwrap();
        let mut shared = Shared {
            main: RawContext::null(),
            coro: RawContext::null(),
            t2: RawContext::null(),
            value: 0,
        };
        // SAFETY: fresh stack; `body` switches back to `main` once, then
        // later (on the second thread) diverges into `resume(t2)`.
        unsafe {
            capture_and_run_on(
                &mut shared.main,
                stack.top(),
                body,
                &mut shared as *mut Shared as *mut c_void,
            );
        }
        // The coroutine is suspended; hand its continuation to a new thread.
        let addr = &mut shared as *mut Shared as usize;
        std::thread::spawn(move || {
            // SAFETY: `shared` outlives the spawned thread (joined below).
            let shared = unsafe { &mut *(addr as *mut Shared) };
            // Switch into the coroutine; it resumes `t2` when done, which
            // makes this switch return and lets the thread exit cleanly on
            // its own stack.
            // SAFETY: `coro` is suspended and resumed exactly once, here.
            unsafe { switch(&mut shared.t2, shared.coro, 2usize as *mut c_void) };
        })
        .join()
        .unwrap();
        assert_eq!(shared.value, 42);
    }

    /// A backtrace taken inside a body renders and ends: the unwinder walks
    /// the body's frames up to the fiber base, where the null return
    /// address stops it.
    #[test]
    fn backtrace_in_body_terminates() {
        struct Trace {
            parent: RawContext,
            rendered: String,
        }

        // SAFETY: callers pass `arg` pointing at a live `Trace`.
        unsafe extern "C" fn body(arg: *mut c_void) -> ! {
            let trace = unsafe { &mut *(arg as *mut Trace) };
            trace.rendered = std::backtrace::Backtrace::force_capture().to_string();
            let parent = trace.parent;
            unsafe { resume(parent, core::ptr::null_mut()) }
        }

        // Symbolisation is stack-hungry; give it room.
        let stack = Stack::map(2 << 20).unwrap();
        let mut trace = Trace {
            parent: RawContext::null(),
            rendered: String::new(),
        };
        // SAFETY: fresh stack; `body` resumes `parent` exactly once.
        unsafe {
            capture_and_run_on(
                &mut trace.parent,
                stack.top(),
                body,
                &mut trace as *mut Trace as *mut c_void,
            );
        }
        assert!(!trace.rendered.is_empty());
        // The walk stopped at the fiber base, not in the test harness
        // frames of the thread that made the capture.
        assert!(!trace.rendered.contains("run_test"), "{}", trace.rendered);
    }

    /// Nesting depth of [`nested_round_trips_keep_callee_saved_state`].
    const NEST: usize = 64;

    struct Level {
        parent: RawContext,
        depth: usize,
        stacks: *const [Stack],
    }

    /// Captures at `depth`, runs the next level on `stacks[depth]` and
    /// returns what it resumed us with plus this level's locals, which are
    /// live across the capture (so they sit in callee-saved registers or
    /// in spill slots the resume must leave intact).
    #[inline(never)]
    fn descend(stacks: &[Stack], depth: usize) -> u64 {
        let d = depth as u64;
        let a = std::hint::black_box(d * 3 + 1);
        let b = std::hint::black_box(d ^ 0x5555);
        let c = std::hint::black_box(d.rotate_left(17));
        let e = std::hint::black_box(!d);
        let f = std::hint::black_box(d * d);
        if depth == stacks.len() {
            return a ^ b ^ c ^ e ^ f;
        }
        let mut level = Level {
            parent: RawContext::null(),
            depth,
            stacks,
        };
        // SAFETY: `stacks[depth]` is used by this level's body only; the
        // body diverges into `resume(parent)` exactly once.
        let below = unsafe {
            capture_and_run_on(
                &mut level.parent,
                stacks[depth].top(),
                level_body,
                &mut level as *mut Level as *mut c_void,
            )
        } as u64;
        assert_eq!(
            (a, b, c, e, f),
            (d * 3 + 1, d ^ 0x5555, d.rotate_left(17), !d, d * d),
            "locals at depth {depth} survived the capture"
        );
        below.wrapping_add(a ^ b ^ c ^ e ^ f)
    }

    // SAFETY: callers pass `arg` pointing at a live `Level` whose `stacks`
    // slice outlives the call.
    unsafe extern "C" fn level_body(arg: *mut c_void) -> ! {
        let level = unsafe { &*(arg as *const Level) };
        let value = descend(unsafe { &*level.stacks }, level.depth + 1);
        let parent = level.parent;
        unsafe { resume(parent, value as usize as *mut c_void) }
    }

    /// What [`descend`] computes, without any context switch.
    fn expected(depth: usize) -> u64 {
        let d = depth as u64;
        let own = (d * 3 + 1) ^ (d ^ 0x5555) ^ d.rotate_left(17) ^ !d ^ (d * d);
        if depth == NEST {
            own
        } else {
            expected(depth + 1).wrapping_add(own)
        }
    }

    /// Over a thousand capture/resume round trips, 64 captures deep, each
    /// delivering the right payload to a frame whose locals are intact.
    #[test]
    fn nested_round_trips_keep_callee_saved_state() {
        let stacks: Vec<Stack> = (0..NEST).map(|_| Stack::map(64 * 1024).unwrap()).collect();
        let want = expected(0);
        for _ in 0..1000usize.div_ceil(NEST) {
            assert_eq!(descend(&stacks, 0), want);
        }
    }
}
