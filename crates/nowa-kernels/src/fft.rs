//! `fft` — fast Fourier transformation (Table I: input 2²⁶, 3054 SLOC in
//! the original; this is a compact radix-2 reimplementation).
//!
//! Recursive decimation-in-time Cooley–Tukey with a ping-pong scratch
//! buffer. Each level deinterleaves its input into even and odd halves,
//! transforms both halves, and combines them with butterflies that read
//! one shared twiddle table, so the transform does O(n log n) work and
//! calls no trigonometry outside [`twiddles`].
//!
//! Above the cutoff (`n ≤ max(grain, 2)` and `n ≤ 32`) the two halves run
//! under `join2`, and the O(n) deinterleave and combine are split under
//! `join2` as well, so no level copies or combines serially on the
//! critical path. Below the cutoff the same recursion runs with plain
//! calls: a leaf is a serial radix-2 transform.
//!
//! The ping-pong scratch (n points) and the twiddle table (n/2 points),
//! 24 MiB together at n = 2²⁰, live for one call. Each is a `Scratch`:
//! an anonymous mapping of its own, unmapped when the call returns. From
//! `malloc` they would stay resident after the call: once glibc's dynamic
//! mmap threshold has risen past their size, it serves them from the
//! calling thread's arena and keeps the freed pages there, and a run whose
//! calls land on fresh worker threads parks one copy in each arena in
//! rotation (EXPERIMENTS.md, "Resolved: fj-coarse's peak RSS was the FFT's
//! temporaries parked in malloc arenas").

use core::ffi::c_void;
use core::ops::{Deref, DerefMut};
use core::ptr::NonNull;
use std::alloc::{handle_alloc_error, Layout};

use nowa_context::sys;
use nowa_runtime::join2;

/// A complex number (f64 re/im).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cpx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Cpx {
    /// Constructs a complex number.
    pub fn new(re: f64, im: f64) -> Cpx {
        Cpx { re, im }
    }

    #[inline]
    fn add(self, o: Cpx) -> Cpx {
        Cpx::new(self.re + o.re, self.im + o.im)
    }

    #[inline]
    fn sub(self, o: Cpx) -> Cpx {
        Cpx::new(self.re - o.re, self.im - o.im)
    }

    #[inline]
    fn mul(self, o: Cpx) -> Cpx {
        Cpx::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }

    /// Squared magnitude.
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

/// Precomputed twiddle factors `w[k] = exp(-2πik/n)` for `k < n/2`.
///
/// Only the first octant (`k ≤ n/8`) calls `sin_cos`; the rest of the
/// table follows by symmetry. Within the first quadrant,
/// `w[n/4 − k] = (−w[k].im, −w[k].re)`, and past it
/// `w[n/4 + k] = (w[k].im, −w[k].re)`.
pub fn twiddles(n: usize) -> Vec<Cpx> {
    let mut w = vec![Cpx::default(); n / 2];
    fill_twiddles(&mut w, n);
    w
}

/// Fills `w` (`n/2` long) with the table [`twiddles`] returns for `n`.
fn fill_twiddles(w: &mut [Cpx], n: usize) {
    assert_eq!(w.len(), n / 2, "a twiddle table holds n/2 factors");
    if w.is_empty() {
        return;
    }
    let q = n / 4;
    for (k, slot) in w.iter_mut().enumerate().take(q / 2 + 1) {
        let angle = -2.0 * core::f64::consts::PI * k as f64 / n as f64;
        let (sin, cos) = angle.sin_cos();
        *slot = Cpx::new(cos, sin);
    }
    for k in q / 2 + 1..=q {
        let m = w[q - k];
        w[k] = Cpx::new(-m.im, -m.re);
    }
    for k in q + 1..n / 2 {
        let m = w[k - q];
        w[k] = Cpx::new(m.im, -m.re);
    }
}

/// A transparent huge page. A [`Scratch`] at least this long starts on a
/// multiple of it and is advised `MADV_HUGEPAGE`. A plain 4 KiB-page
/// mapping faults 4 096 times per 16 MiB on every call: on a 2-vCPU
/// x86_64 host that made a 2²⁰-point transform about 5 % slower serially
/// and 14 % slower on two workers.
const HUGE_PAGE: usize = 2 << 20;

/// A zero-filled `[Cpx]` in an anonymous mapping of its own, unmapped on
/// drop, so its pages go back to the OS instead of into a `malloc` arena
/// (see the module doc).
struct Scratch {
    ptr: NonNull<Cpx>,
    len: usize,
    /// Bytes mapped at `ptr`: whole pages, 0 for an empty scratch.
    map_len: usize,
}

impl Scratch {
    /// Maps `len` zeroed points. A failed map ends in
    /// [`handle_alloc_error`], as a `Vec`'s failed allocation does.
    fn zeroed(len: usize) -> Scratch {
        let layout = Layout::array::<Cpx>(len).expect("scratch length overflows isize");
        if layout.size() == 0 {
            return Scratch {
                ptr: NonNull::dangling(),
                len,
                map_len: 0,
            };
        }
        let map_len = layout.size().next_multiple_of(sys::PAGE_SIZE);
        let align = if map_len >= HUGE_PAGE {
            HUGE_PAGE
        } else {
            sys::PAGE_SIZE
        };
        // Over-map by `align` less one page so an aligned start lies
        // inside, then unmap the slack on either side. `layout.size() ≤ isize::MAX`,
        // so the sum cannot overflow.
        let reserve = map_len + align - sys::PAGE_SIZE;
        // SAFETY: a fresh anonymous mapping of a length computed here; no
        // existing memory is affected.
        let base = unsafe {
            sys::mmap(
                reserve,
                sys::prot::READ | sys::prot::WRITE,
                sys::map::PRIVATE | sys::map::ANONYMOUS,
            )
        }
        .unwrap_or_else(|_| handle_alloc_error(layout)) as usize;
        let start = base.next_multiple_of(align);
        let end = start + map_len;
        for (lo, hi) in [(base, start), (end, base + reserve)] {
            if hi > lo {
                // SAFETY: `lo..hi` is slack of the mapping just made, outside
                // `start..end`; nothing points into it.
                unsafe {
                    let _ = sys::munmap(lo as *mut c_void, hi - lo);
                }
            }
        }
        if align == HUGE_PAGE {
            // SAFETY: `start..end` is the mapping just made. The advice is
            // a hint: where it fails, the scratch keeps 4 KiB pages.
            unsafe {
                let _ = sys::madvise(start as *mut c_void, map_len, sys::Advice::HugePage);
            }
        }
        Scratch {
            ptr: NonNull::new(start as *mut Cpx).expect("mmap returned address 0"),
            len,
            map_len,
        }
    }
}

impl Deref for Scratch {
    type Target = [Cpx];

    fn deref(&self) -> &[Cpx] {
        // SAFETY: `ptr` is page-aligned (or dangling with `len == 0`) and
        // owns `len` points of a zero-filled mapping; all-zero bits are the
        // valid `Cpx` 0 + 0i.
        unsafe { core::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for Scratch {
    fn deref_mut(&mut self) -> &mut [Cpx] {
        // SAFETY: as in `deref`; `&mut self` makes the borrow unique.
        unsafe { core::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if self.map_len > 0 {
            // SAFETY: the scratch owns `ptr..ptr + map_len`, and no borrow of
            // it outlives `self`.
            unsafe {
                let _ = sys::munmap(self.ptr.as_ptr() as *mut c_void, self.map_len);
            }
        }
    }
}

/// Deinterleave leaves copy at most this many elements: 64 KiB read and
/// 64 KiB written, microseconds of copying, so one spawn (tens of
/// nanoseconds when not stolen) costs well under 5 % of one leaf.
const DEINTERLEAVE_GRAIN: usize = 4096;

/// Runs `a` and `b`: under `join2` when `parallel`, else one after the
/// other on the calling thread.
fn fork(parallel: bool, a: impl FnOnce() + Send, b: impl FnOnce() + Send) {
    if parallel {
        join2(a, b);
    } else {
        a();
        b();
    }
}

/// Copies the even-indexed elements of `src` to `even` and the odd-indexed
/// ones to `odd`, recursively split under `join2` down to `grain` source
/// elements, so the O(n) copy is parallel too.
fn deinterleave(src: &[Cpx], even: &mut [Cpx], odd: &mut [Cpx], grain: usize) {
    if src.len() <= grain {
        for ((pair, e), o) in src.chunks_exact(2).zip(even).zip(odd) {
            *e = pair[0];
            *o = pair[1];
        }
        return;
    }
    let h = even.len() / 2;
    let (s1, s2) = src.split_at(2 * h);
    let (e1, e2) = even.split_at_mut(h);
    let (o1, o2) = odd.split_at_mut(h);
    join2(
        move || deinterleave(s1, e1, o1, grain),
        move || deinterleave(s2, e2, o2, grain),
    );
}

/// Butterfly combine: `out_lo[k] = e[k] + w^k o[k]`, `out_hi[k] = e[k] − w^k o[k]`,
/// recursively split so the O(n) combine is parallel too.
#[allow(clippy::too_many_arguments)]
fn combine(
    out_lo: &mut [Cpx],
    out_hi: &mut [Cpx],
    even: &[Cpx],
    odd: &[Cpx],
    tw: &[Cpx],
    stride: usize,
    k0: usize,
    grain: usize,
) {
    let n = out_lo.len();
    if n <= grain {
        for k in 0..n {
            let w = tw[(k0 + k) * stride];
            let t = w.mul(odd[k]);
            out_lo[k] = even[k].add(t);
            out_hi[k] = even[k].sub(t);
        }
        return;
    }
    let h = n / 2;
    let (ol1, ol2) = out_lo.split_at_mut(h);
    let (oh1, oh2) = out_hi.split_at_mut(h);
    let (e1, e2) = even.split_at(h);
    let (o1, o2) = odd.split_at(h);
    join2(
        move || combine(ol1, oh1, e1, o1, tw, stride, k0, grain),
        move || combine(ol2, oh2, e2, o2, tw, stride, k0 + h, grain),
    );
}

/// The O(n²) DFT by definition, with a `cos` and a `sin` per term. It is
/// the test reference the transform is checked against, and is not on
/// the transform's path.
pub fn dft_naive(input: &[Cpx]) -> Vec<Cpx> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Cpx::default();
            for (j, x) in input.iter().enumerate() {
                let angle = -2.0 * core::f64::consts::PI * (k * j % n) as f64 / n as f64;
                acc = acc.add(x.mul(Cpx::new(angle.cos(), angle.sin())));
            }
            acc
        })
        .collect()
}

/// Transforms `buf` in place, using `scratch` (as long) for the halves.
/// `parallel` is cleared at the cutoff (`n ≤ max(grain, 2)` and `n ≤ 32`):
/// from there down the same recursion runs serially.
fn fft_rec(
    buf: &mut [Cpx],
    scratch: &mut [Cpx],
    tw: &[Cpx],
    stride: usize,
    grain: usize,
    parallel: bool,
) {
    let n = buf.len();
    if n == 1 {
        return;
    }
    if n == 2 {
        // The two-point butterfly; its twiddle is 1.
        let (a, b) = (buf[0], buf[1]);
        buf[0] = a.add(b);
        buf[1] = a.sub(b);
        return;
    }
    let parallel = parallel && !(n <= grain.max(2) && n <= 32);
    let h = n / 2;
    // Below the cutoff each copy and each combine is one serial loop.
    let (copy_grain, combine_grain) = if parallel {
        (DEINTERLEAVE_GRAIN, grain.max(16))
    } else {
        (n, h)
    };
    let (s_lo, s_hi) = scratch.split_at_mut(h);
    deinterleave(buf, s_lo, s_hi, copy_grain);
    let (b_lo, b_hi) = buf.split_at_mut(h);
    fork(
        parallel,
        || fft_rec(s_lo, b_lo, tw, stride * 2, grain, parallel),
        || fft_rec(s_hi, b_hi, tw, stride * 2, grain, parallel),
    );
    combine(b_lo, b_hi, s_lo, s_hi, tw, stride, 0, combine_grain);
}

/// In-place FFT of a power-of-two-length buffer.
pub fn fft(buf: &mut [Cpx], grain: usize) {
    let n = buf.len();
    assert!(n.is_power_of_two(), "fft length must be a power of two");
    let mut tw = Scratch::zeroed(n / 2);
    fill_twiddles(&mut tw, n);
    let mut scratch = Scratch::zeroed(n);
    fft_rec(buf, &mut scratch, &tw, 1, grain, true);
}

/// Deterministic pseudo-random signal.
pub fn random_signal(n: usize, seed: u64) -> Vec<Cpx> {
    let mut x = seed | 1;
    let mut rand = move || {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % 2000) as f64 / 1000.0 - 1.0
    };
    (0..n).map(|_| Cpx::new(rand(), rand())).collect()
}

/// Energy checksum (Parseval-friendly).
pub fn spectrum_energy(buf: &[Cpx]) -> f64 {
    buf.iter().map(|c| c.norm_sq()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_naive_dft() {
        for log_n in [3usize, 5, 7] {
            let n = 1 << log_n;
            let signal = random_signal(n, 11);
            let expected = dft_naive(&signal);
            let mut buf = signal;
            fft(&mut buf, 4);
            for (a, b) in buf.iter().zip(&expected) {
                assert!((a.re - b.re).abs() < 1e-8 && (a.im - b.im).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let n = 1 << 10;
        let signal = random_signal(n, 5);
        let time_energy = spectrum_energy(&signal);
        let mut buf = signal;
        fft(&mut buf, 64);
        let freq_energy = spectrum_energy(&buf) / n as f64;
        let rel = (time_energy - freq_energy).abs() / time_energy;
        assert!(rel < 1e-10, "Parseval violated: {rel}");
    }

    /// Points in one huge page.
    const HUGE_POINTS: usize = HUGE_PAGE / core::mem::size_of::<Cpx>();

    #[test]
    fn scratch_is_zeroed_and_as_long_as_asked() {
        for len in [0, 1, 255, 256, 257, HUGE_POINTS, HUGE_POINTS + 1] {
            let s = Scratch::zeroed(len);
            assert_eq!(s.len(), len);
            assert!(s.iter().all(|c| *c == Cpx::default()), "len {len}");
        }
    }

    #[test]
    fn scratch_spanning_a_huge_page_starts_on_one() {
        for len in [HUGE_POINTS, 3 * HUGE_POINTS + 5] {
            assert_eq!(Scratch::zeroed(len).as_ptr() as usize % HUGE_PAGE, 0);
        }
        assert_eq!(Scratch::zeroed(1).as_ptr() as usize % sys::PAGE_SIZE, 0);
    }

    #[test]
    fn scratch_pages_are_released_on_drop() {
        let rss = || sys::rss_kib().expect("VmRSS from /proc/self/status").0;
        // 32 MiB with every page written. The other tests of this binary
        // run concurrently but allocate little, so a quarter is margin.
        let mut s = Scratch::zeroed(16 * HUGE_POINTS);
        s.fill(Cpx::new(1.0, -1.0));
        let resident = rss();
        drop(s);
        let released = resident.saturating_sub(rss());
        assert!(
            released >= 24 << 10,
            "drop released {released} KiB of 32 MiB"
        );
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 64;
        let mut buf = vec![Cpx::default(); n];
        buf[0] = Cpx::new(1.0, 0.0);
        fft(&mut buf, 8);
        for c in &buf {
            assert!((c.re - 1.0).abs() < 1e-12 && c.im.abs() < 1e-12);
        }
    }
}
