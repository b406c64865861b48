//! The checksummed-exchange substrate: a wire-hashable element trait and
//! the chunk checksum the alltoall family carries per peer.
//!
//! Every `alltoall_into` / `alltoallv_into` / `ialltoall` chunk is hashed
//! at *pack* time (when the transport stages its one owned copy — the
//! NIC-buffer stand-in) and verified at *unpack* (when the receiving rank
//! lifts its segment out of the completed collective). Anything that
//! mangles the staged bytes in between — the seeded
//! [`PayloadCorrupt`](fftx_fault::PayloadCorrupt) profile, or a real
//! memory error in a production transport — surfaces as a typed
//! [`VmpiError::Integrity`](crate::VmpiError) naming the peer, the tag,
//! and both checksums, *before* the corrupted data reaches the caller's
//! receive buffer.
//!
//! The hash is a four-lane multiply-rotate fold over each element's
//! canonical 64-bit image: element `i` goes into lane `i mod 4`, and a
//! splitmix finalizer combines the lanes. It is not cryptographic and does
//! not need to be: the adversary is a bit flip, not an attacker. Every step
//! is a bijection in the value that changed, so any change to one
//! element's image (a single flipped bit, say) always changes the
//! checksum; the tests pin that for every bit of every element of chunks
//! of 0 to 9 elements.

/// An element that can travel through a checksummed exchange: it exposes a
/// canonical 64-bit image for hashing, and a bit-flip primitive so the
/// seeded corruption profiles can strike payloads of any element type.
pub trait Checksum {
    /// The element's canonical 64-bit image (e.g. `f64::to_bits`). Two
    /// elements with equal images are indistinguishable on the wire.
    fn image(&self) -> u64;

    /// Flips one bit of the element's representation (`bit` taken modulo
    /// the representation width). Fault injection only.
    fn flip_bit(&mut self, bit: u32);
}

macro_rules! impl_checksum_int {
    ($($t:ty),*) => {$(
        impl Checksum for $t {
            #[inline]
            fn image(&self) -> u64 {
                *self as u64
            }
            #[inline]
            fn flip_bit(&mut self, bit: u32) {
                *self ^= (1 as $t).rotate_left(bit % <$t>::BITS);
            }
        }
    )*};
}

impl_checksum_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Checksum for f64 {
    #[inline]
    fn image(&self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn flip_bit(&mut self, bit: u32) {
        *self = f64::from_bits(self.to_bits() ^ (1u64 << (bit % 64)));
    }
}

impl Checksum for f32 {
    #[inline]
    fn image(&self) -> u64 {
        u64::from(self.to_bits())
    }
    #[inline]
    fn flip_bit(&mut self, bit: u32) {
        *self = f32::from_bits(self.to_bits() ^ (1u32 << (bit % 32)));
    }
}

/// splitmix64 finalizer: combines the four lanes of the chunk fold.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeds of the four fold lanes; the chunk length is mixed into lane 0's.
const LANE_SEED: [u64; 4] = [
    0x1620_43B8_D6F0_5E91,
    0x6A09_E667_F3BC_C908,
    0xBB67_AE85_84CA_A73B,
    0x3C6E_F372_FE94_F82B,
];

/// Odd per-lane multipliers, so each fold step is a bijection.
const LANE_K: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0xD6E8_FEB8_6659_FD93,
];

/// One fold step of a lane: xor the image in, multiply by the lane's odd
/// constant, rotate.
#[inline(always)]
fn fold(acc: u64, image: u64, k: u64) -> u64 {
    (acc ^ image).wrapping_mul(k).rotate_left(29)
}

/// The chunk checksum: element `i` folds into lane `i mod 4`, and the four
/// lanes are combined through the splitmix finalizer. The four chains are
/// independent, so they overlap in the pipeline.
///
/// Each step is a bijection in the value that changed (xor, multiply by an
/// odd constant, rotate, finalizer), so a change to one element's image
/// always changes the checksum. Position matters: a swap of two unequal
/// elements changes it with overwhelming probability.
pub fn checksum_slice<T: Checksum>(chunk: &[T]) -> u64 {
    let mut acc = LANE_SEED;
    acc[0] ^= chunk.len() as u64;
    let mut quads = chunk.chunks_exact(4);
    for quad in &mut quads {
        for (lane, x) in quad.iter().enumerate() {
            acc[lane] = fold(acc[lane], x.image(), LANE_K[lane]);
        }
    }
    for (lane, x) in quads.remainder().iter().enumerate() {
        acc[lane] = fold(acc[lane], x.image(), LANE_K[lane]);
    }
    let [a0, a1, a2, a3] = acc;
    mix(a0 ^ mix(a1 ^ mix(a2 ^ mix(a3))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_pure_and_length_sensitive() {
        let a = vec![1.0f64, 2.0, 3.0];
        assert_eq!(checksum_slice(&a), checksum_slice(&a));
        assert_ne!(checksum_slice(&a), checksum_slice(&a[..2]));
        assert_ne!(checksum_slice::<f64>(&[]), checksum_slice(&[0.0]));
    }

    /// `len` distinct values of assorted magnitudes and signs.
    fn chunk(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| (i as f64 - 3.5) * 1.37e-3 + (i % 3) as f64)
            .collect()
    }

    #[test]
    fn any_single_bit_flip_changes_the_checksum() {
        // Lengths 0 to 9 cover all four lanes and every remainder.
        for len in 0..10 {
            let base = chunk(len);
            let sum = checksum_slice(&base);
            for i in 0..len {
                for bit in 0..64 {
                    let mut mutated = base.clone();
                    mutated[i].flip_bit(bit);
                    assert_ne!(
                        checksum_slice(&mutated),
                        sum,
                        "flip of bit {bit} in element {i} of {len} must change the checksum"
                    );
                }
            }
        }
    }

    #[test]
    fn checksum_is_position_sensitive() {
        // Swapping any two unequal elements changes the checksum, within a
        // lane and across lanes.
        for len in 2..10 {
            let base = chunk(len);
            let sum = checksum_slice(&base);
            for i in 0..len {
                for j in i + 1..len {
                    let mut swapped = base.clone();
                    swapped.swap(i, j);
                    assert_ne!(checksum_slice(&swapped), sum, "swap {i}<->{j} of {len}");
                }
            }
        }
    }

    #[test]
    fn flip_bit_is_an_involution_across_types() {
        let mut x = 42u32;
        x.flip_bit(70); // reduced modulo width
        x.flip_bit(70);
        assert_eq!(x, 42);
        let mut y = -1.5f64;
        y.flip_bit(63);
        assert!(y > 0.0, "sign bit flipped");
        y.flip_bit(63);
        assert_eq!(y, -1.5);
        let mut z = 7i16;
        z.flip_bit(3);
        assert_eq!(z, 15);
    }

    #[test]
    fn integer_images_are_value_stable() {
        assert_eq!(3u8.image(), 3u64);
        assert_eq!(3u64.image(), 3u64);
        assert_eq!(checksum_slice(&[1u8, 2, 3]), checksum_slice(&[1u64, 2, 3]));
    }
}
