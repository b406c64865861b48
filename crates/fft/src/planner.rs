//! Size factorisation and "good FFT order" selection.
//!
//! Quantum ESPRESSO's `good_fft_order` only accepts grid dimensions whose
//! factorisation is `2^a * 3^b * 5^c * 7^d * 11^e` with `d, e <= 1`; the same
//! rule is implemented here so grids derived from a kinetic-energy cutoff end
//! up with the exact dimensions the original FFTXlib would pick.

/// Largest prime the mixed-radix engine handles directly. Radices 2, 3, 4,
/// 5 and 7 have closed-form butterflies; the primes 11 to this one run the
/// generic O(r^2) loop. Sizes containing a larger prime fall back to
/// Bluestein.
pub const MAX_DIRECT_PRIME: usize = 37;

/// Returns the prime factorisation of `n` (ascending, with multiplicity).
/// `factorize(0)` and `factorize(1)` return an empty vector.
pub fn factorize(n: usize) -> Vec<usize> {
    let mut n = n;
    let mut out = Vec::new();
    if n < 2 {
        return out;
    }
    for p in [2usize, 3, 5] {
        while n.is_multiple_of(p) {
            out.push(p);
            n /= p;
        }
    }
    let mut p = 7;
    while p * p <= n {
        while n.is_multiple_of(p) {
            out.push(p);
            n /= p;
        }
        p += 2;
    }
    if n > 1 {
        out.push(n);
    }
    out
}

/// The radix schedule used by the mixed-radix engine, outermost level
/// first: one radix-4 stage per fused pair of 2s, then a lone 2, then the
/// odd primes ascending.
pub fn radix_schedule(n: usize) -> Vec<usize> {
    let primes = factorize(n);
    let twos = primes.iter().filter(|&&p| p == 2).count();
    let mut sched = Vec::new();
    // One radix-4 stage per fused pair of 2s.
    sched.resize(twos / 2, 4);
    if twos % 2 == 1 {
        sched.push(2);
    }
    for &p in primes.iter().filter(|&&p| p != 2) {
        sched.push(p);
    }
    sched
}

/// True when `n` factors as `2^a 3^b 5^c 7^d 11^e` with `d, e <= 1`
/// (Quantum ESPRESSO's notion of an acceptable FFT dimension).
pub fn is_good_size(n: usize) -> bool {
    if n == 0 {
        return false;
    }
    let mut n = n;
    for p in [2usize, 3, 5] {
        while n.is_multiple_of(p) {
            n /= p;
        }
    }
    for p in [7usize, 11] {
        if n.is_multiple_of(p) {
            n /= p;
        }
    }
    n == 1
}

/// Smallest good FFT size `>= n` (QE's `good_fft_order`).
///
/// # Panics
/// Panics if `n == 0`.
pub fn good_fft_order(n: usize) -> usize {
    assert!(n > 0, "good_fft_order: n must be positive");
    let mut m = n;
    while !is_good_size(m) {
        m += 1;
    }
    m
}

/// True when the mixed-radix engine can run `n` without Bluestein.
pub fn is_direct_size(n: usize) -> bool {
    n <= 1 || factorize(n).into_iter().all(|p| p <= MAX_DIRECT_PRIME)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorize_basics() {
        assert!(factorize(0).is_empty());
        assert!(factorize(1).is_empty());
        assert_eq!(factorize(2), vec![2]);
        assert_eq!(factorize(12), vec![2, 2, 3]);
        assert_eq!(factorize(360), vec![2, 2, 2, 3, 3, 5]);
        assert_eq!(factorize(97), vec![97]);
        assert_eq!(factorize(77), vec![7, 11]);
    }

    #[test]
    fn factorize_reconstructs() {
        for n in 2..500 {
            let prod: usize = factorize(n).iter().product();
            assert_eq!(prod, n, "n={n}");
        }
    }

    #[test]
    fn schedule_prefers_radix4() {
        assert_eq!(radix_schedule(16), vec![4, 4]);
        assert_eq!(radix_schedule(8), vec![4, 2]);
        assert_eq!(radix_schedule(120), vec![4, 2, 3, 5]);
        assert_eq!(radix_schedule(1), Vec::<usize>::new());
    }

    #[test]
    fn schedule_product_is_n() {
        for n in 2..300 {
            let prod: usize = radix_schedule(n).iter().product();
            assert_eq!(prod, n, "n={n}");
        }
    }

    #[test]
    fn good_sizes_match_qe_rule() {
        // 2^a 3^b 5^c with optional single 7 / 11.
        for n in [1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 14, 15, 120, 128, 240] {
            assert!(is_good_size(n), "{n} should be good");
        }
        // 49 = 7^2 and 121 = 11^2 exceed the single-factor allowance; 13 is
        // not an allowed prime at all.
        for n in [0, 13, 49, 121, 13 * 2, 17] {
            assert!(!is_good_size(n), "{n} should be bad");
        }
    }

    #[test]
    fn good_fft_order_rounds_up() {
        assert_eq!(good_fft_order(1), 1);
        assert_eq!(good_fft_order(13), 14);
        assert_eq!(good_fft_order(115), 120);
        assert_eq!(good_fft_order(121), 125); // 121 = 11^2 rejected
        assert_eq!(good_fft_order(128), 128);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn good_fft_order_rejects_zero() {
        good_fft_order(0);
    }

    #[test]
    fn direct_size_boundary() {
        assert!(is_direct_size(1));
        assert!(is_direct_size(37));
        assert!(is_direct_size(2 * 37));
        assert!(!is_direct_size(41));
        assert!(!is_direct_size(2 * 41));
    }
}
