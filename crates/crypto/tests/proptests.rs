//! Property-based tests for the cryptographic substrate.

use proptest::prelude::*;
use vg_crypto::aes::{ctr_xor, SealedBox};
use vg_crypto::bignum::BigUint;
use vg_crypto::hmac::HmacSha256;
use vg_crypto::sha256::Sha256;

fn big(bytes: Vec<u8>) -> BigUint {
    BigUint::from_be_bytes(&bytes)
}

proptest! {
    // ---- bignum algebraic laws ------------------------------------------

    #[test]
    fn add_commutes(a in proptest::collection::vec(any::<u8>(), 0..24),
                    b in proptest::collection::vec(any::<u8>(), 0..24)) {
        let (x, y) = (big(a), big(b));
        prop_assert_eq!(x.add(&y), y.add(&x));
    }

    #[test]
    fn add_associates(a in proptest::collection::vec(any::<u8>(), 0..16),
                      b in proptest::collection::vec(any::<u8>(), 0..16),
                      c in proptest::collection::vec(any::<u8>(), 0..16)) {
        let (x, y, z) = (big(a), big(b), big(c));
        prop_assert_eq!(x.add(&y).add(&z), x.add(&y.add(&z)));
    }

    #[test]
    fn mul_commutes_and_distributes(
        a in proptest::collection::vec(any::<u8>(), 0..12),
        b in proptest::collection::vec(any::<u8>(), 0..12),
        c in proptest::collection::vec(any::<u8>(), 0..12),
    ) {
        let (x, y, z) = (big(a), big(b), big(c));
        prop_assert_eq!(x.mul(&y), y.mul(&x));
        prop_assert_eq!(x.mul(&y.add(&z)), x.mul(&y).add(&x.mul(&z)));
    }

    #[test]
    fn sub_inverts_add(a in proptest::collection::vec(any::<u8>(), 0..24),
                       b in proptest::collection::vec(any::<u8>(), 0..24)) {
        let (x, y) = (big(a), big(b));
        prop_assert_eq!(x.add(&y).sub(&y), x);
    }

    #[test]
    fn div_rem_reconstructs(a in proptest::collection::vec(any::<u8>(), 0..32),
                            b in proptest::collection::vec(any::<u8>(), 1..20)) {
        let x = big(a);
        let y = big(b);
        prop_assume!(!y.is_zero());
        let (q, r) = x.div_rem(&y);
        prop_assert!(r < y);
        prop_assert_eq!(q.mul(&y).add(&r), x);
    }

    #[test]
    fn shifts_roundtrip(a in proptest::collection::vec(any::<u8>(), 0..24),
                        s in 0usize..130) {
        let x = big(a);
        prop_assert_eq!(x.shl(s).shr(s), x);
    }

    #[test]
    fn byte_encoding_roundtrips(a in proptest::collection::vec(any::<u8>(), 0..40)) {
        let x = big(a);
        prop_assert_eq!(BigUint::from_be_bytes(&x.to_be_bytes()), x.clone());
        prop_assert_eq!(BigUint::from_hex(&x.to_hex()).unwrap(), x);
    }

    #[test]
    fn modpow_matches_naive(base in 0u64..1000, exp in 0u64..24, m in 2u64..10_000) {
        let naive = {
            let mut acc: u128 = 1;
            for _ in 0..exp {
                acc = acc * base as u128 % m as u128;
            }
            acc as u64
        };
        let got = BigUint::from(base).modpow(&BigUint::from(exp), &BigUint::from(m));
        prop_assert_eq!(got, BigUint::from(naive));
    }

    #[test]
    fn modinv_is_inverse_when_it_exists(a in 1u64..50_000, m in 2u64..50_000) {
        let x = BigUint::from(a);
        let modulus = BigUint::from(m);
        if let Some(inv) = x.modinv(&modulus) {
            prop_assert_eq!(x.mul(&inv).rem(&modulus), BigUint::one());
        } else {
            // No inverse ⇔ gcd > 1.
            prop_assert!(!x.gcd(&modulus).is_one());
        }
    }

    // ---- symmetric crypto -------------------------------------------------

    #[test]
    fn ctr_is_involutive(key in any::<[u8; 16]>(), nonce in any::<u64>(),
                         data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let mut buf = data.clone();
        ctr_xor(&key, nonce, &mut buf);
        ctr_xor(&key, nonce, &mut buf);
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn sha_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..300),
                                      split in 0usize..300) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn hmac_detects_any_single_bitflip(key in proptest::collection::vec(any::<u8>(), 1..40),
                                       mut data in proptest::collection::vec(any::<u8>(), 1..100),
                                       byte in 0usize..100, bit in 0u8..8) {
        let tag = HmacSha256::mac(&key, &data);
        let idx = byte % data.len();
        data[idx] ^= 1 << bit;
        prop_assert!(!HmacSha256::verify(&key, &data, &tag));
    }

    #[test]
    fn sealed_box_roundtrips_and_binds_context(
        enc in any::<[u8; 16]>(), mac in any::<[u8; 32]>(),
        ctx in any::<u64>(), other_ctx in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let sealed = SealedBox::seal(&enc, &mac, ctx, &data);
        prop_assert_eq!(sealed.open(&enc, &mac, ctx).unwrap(), data);
        if other_ctx != ctx {
            prop_assert!(sealed.open(&enc, &mac, other_ctx).is_err());
        }
    }

    #[test]
    fn sealed_box_detects_ciphertext_tamper(
        enc in any::<[u8; 16]>(), mac in any::<[u8; 32]>(),
        data in proptest::collection::vec(any::<u8>(), 1..100),
        byte in 0usize..100, bit in 0u8..8,
    ) {
        let mut sealed = SealedBox::seal(&enc, &mac, 5, &data);
        let len = sealed.len();
        sealed.ciphertext_mut()[byte % len] ^= 1 << bit;
        prop_assert!(sealed.open(&enc, &mac, 5).is_err());
    }
}
