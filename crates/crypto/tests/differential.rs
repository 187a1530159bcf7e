//! Differential proptests: the optimized crypto data plane (T-table AES,
//! batched CTR, unrolled multi-block SHA-256, HMAC midstates, sealed boxes)
//! and the Montgomery RSA arithmetic (`BigUint::modpow`,
//! `BigUint::is_probable_prime`) must be bit-identical to the retained
//! textbook implementations in `vg_crypto::reference` on arbitrary inputs.

use proptest::prelude::*;
use vg_crypto::aes::{ctr_xor, Aes128, Aes128Ctr, SealedBox};
use vg_crypto::bignum::BigUint;
use vg_crypto::hmac::{HmacKey, HmacSha256};
use vg_crypto::reference;
use vg_crypto::sha256::Sha256;

proptest! {
    // ---- AES block layer --------------------------------------------------

    #[test]
    fn encrypt_block_matches_reference(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
        let aes = Aes128::new(&key);
        prop_assert_eq!(aes.encrypt_block(block), reference::encrypt_block(&key, block));
    }

    // ---- CTR --------------------------------------------------------------

    #[test]
    fn ctr_matches_reference(key in any::<[u8; 16]>(), nonce in any::<u64>(),
                             data in proptest::collection::vec(any::<u8>(), 0..600)) {
        let mut fast = data.clone();
        ctr_xor(&key, nonce, &mut fast);
        let mut slow = data.clone();
        reference::ctr_xor(&key, nonce, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn ctr_stream_matches_reference_across_splits(
        key in any::<[u8; 16]>(), nonce in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..400),
        splits in proptest::collection::vec(0usize..400, 0..5),
    ) {
        let aes = Aes128::new(&key);
        let mut fast = data.clone();
        let mut stream = Aes128Ctr::new(&aes, nonce);
        let mut cuts: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut prev = 0;
        for cut in cuts {
            stream.xor(&mut fast[prev..cut]);
            prev = cut;
        }
        stream.xor(&mut fast[prev..]);
        let mut slow = data.clone();
        reference::ctr_xor(&key, nonce, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    // ---- SHA-256 / HMAC ---------------------------------------------------

    #[test]
    fn sha256_matches_reference(data in proptest::collection::vec(any::<u8>(), 0..600)) {
        prop_assert_eq!(Sha256::digest(&data), reference::sha256(&data));
    }

    #[test]
    fn sha256_streaming_matches_reference(
        data in proptest::collection::vec(any::<u8>(), 0..400),
        split in 0usize..400,
    ) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), reference::sha256(&data));
    }

    #[test]
    fn hmac_matches_reference(key in proptest::collection::vec(any::<u8>(), 0..200),
                              data in proptest::collection::vec(any::<u8>(), 0..400)) {
        // Covers the >64-byte-key hash-the-key path as well.
        let expect = reference::hmac_sha256(&key, &data);
        prop_assert_eq!(HmacSha256::mac(&key, &data), expect);
        prop_assert_eq!(HmacKey::new(&key).mac(&data), expect);
    }

    // ---- SealedBox --------------------------------------------------------

    #[test]
    fn seal_matches_reference(enc in any::<[u8; 16]>(), mac in any::<[u8; 32]>(),
                              ctx in any::<u64>(),
                              data in proptest::collection::vec(any::<u8>(), 0..400)) {
        let sealed = SealedBox::seal(&enc, &mac, ctx, &data);
        let (nonce, ct, tag) = reference::seal(&enc, &mac, ctx, &data);
        prop_assert_eq!(sealed.nonce(), nonce);
        prop_assert_eq!(sealed.ciphertext(), &ct[..]);
        prop_assert_eq!(sealed.tag(), &tag);
        // The precomputed-key and streaming paths produce the same box.
        let cipher = Aes128::new(&enc);
        let mac_key = HmacKey::new(&mac);
        prop_assert_eq!(&SealedBox::seal_with(&cipher, &mac_key, ctx, &data), &sealed);
        let mut stream = SealedBox::sealer(&cipher, &mac_key, ctx);
        for chunk in data.chunks(7) {
            stream.write(chunk);
        }
        prop_assert_eq!(&stream.finish(), &sealed);
    }

    #[test]
    fn open_matches_reference(enc in any::<[u8; 16]>(), mac in any::<[u8; 32]>(),
                              ctx in any::<u64>(),
                              data in proptest::collection::vec(any::<u8>(), 0..400)) {
        let sealed = SealedBox::seal(&enc, &mac, ctx, &data);
        let via_ref = reference::open(
            &enc, &mac, ctx, sealed.nonce(), sealed.ciphertext(), sealed.tag(),
        );
        prop_assert_eq!(via_ref.as_deref(), Some(&data[..]));
        let opened = sealed.open(&enc, &mac, ctx).ok();
        prop_assert_eq!(opened.as_deref(), Some(&data[..]));
        let cipher = Aes128::new(&enc);
        let mac_key = HmacKey::new(&mac);
        let opened_with = sealed.open_with(&cipher, &mac_key, ctx).ok();
        prop_assert_eq!(opened_with.as_deref(), Some(&data[..]));
    }

    #[test]
    fn tamper_rejected_by_both(enc in any::<[u8; 16]>(), mac in any::<[u8; 32]>(),
                               data in proptest::collection::vec(any::<u8>(), 1..200),
                               byte in 0usize..200, bit in 0u8..8) {
        let mut sealed = SealedBox::seal(&enc, &mac, 9, &data);
        let len = sealed.len();
        sealed.ciphertext_mut()[byte % len] ^= 1 << bit;
        prop_assert!(sealed.open(&enc, &mac, 9).is_err());
        prop_assert!(sealed
            .open_with(&Aes128::new(&enc), &HmacKey::new(&mac), 9)
            .is_err());
        prop_assert!(reference::open(
            &enc, &mac, 9, sealed.nonce(), sealed.ciphertext(), sealed.tag(),
        )
        .is_none());
    }
}

// ---- Montgomery modpow / Miller–Rabin -------------------------------------

fn big(limbs: &[u64]) -> BigUint {
    let bytes: Vec<u8> = limbs.iter().rev().flat_map(|l| l.to_be_bytes()).collect();
    BigUint::from_be_bytes(&bytes)
}

/// An odd modulus from random limbs. A `shift` below 32 keeps the top limb's
/// high bit set, so `m` is close to the Montgomery radix and the final
/// conditional subtraction is exercised often.
fn odd_modulus(mut limbs: Vec<u64>, shift: u32) -> BigUint {
    let top = limbs.last_mut().unwrap();
    if shift < 32 {
        *top |= 1 << 63;
    } else {
        *top >>= shift;
    }
    limbs[0] |= 1;
    big(&limbs)
}

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// Runs `f` on a copy of `rng`, returning its result and the draws taken.
fn counting<T>(seed: u64, f: impl FnOnce(&mut dyn FnMut() -> u64) -> T) -> (T, u32) {
    let mut rng = xorshift(seed);
    let mut draws = 0;
    let out = f(&mut || {
        draws += 1;
        rng()
    });
    (out, draws)
}

/// Asserts that both primality tests agree on `n` for `seed`, in verdict
/// and in the number of RNG draws, and returns the verdict.
fn assert_prime_test_matches(n: &BigUint, seed: u64) -> bool {
    let fast = counting(seed, |rng| n.is_probable_prime(16, &mut || rng()));
    let slow = counting(seed, |rng| {
        reference::is_probable_prime(n, 16, &mut || rng())
    });
    assert_eq!(fast, slow, "primality test of {n} with seed {seed}");
    fast.0
}

proptest! {
    #[test]
    fn modpow_matches_reference_on_odd_moduli(
        m in proptest::collection::vec(any::<u64>(), 1..9),
        shift in 0u32..64,
        base in proptest::collection::vec(any::<u64>(), 0..10),
        exp in proptest::collection::vec(any::<u64>(), 0..4),
    ) {
        let m = odd_modulus(m, shift);
        let (base, exp) = (big(&base), big(&exp));
        prop_assert_eq!(base.modpow(&exp, &m), reference::modpow(&base, &exp, &m));
    }

    #[test]
    fn modpow_matches_reference_on_even_moduli(
        m in proptest::collection::vec(any::<u64>(), 1..5),
        base in proptest::collection::vec(any::<u64>(), 0..6),
        exp in proptest::collection::vec(any::<u64>(), 0..3),
    ) {
        let mut m = m;
        m[0] &= !1;
        let m = big(&m);
        prop_assume!(!m.is_zero());
        let (base, exp) = (big(&base), big(&exp));
        prop_assert_eq!(base.modpow(&exp, &m), reference::modpow(&base, &exp, &m));
    }

    #[test]
    fn prime_test_matches_reference_on_odd_candidates(
        n in proptest::collection::vec(any::<u64>(), 1..5),
        seed: u64,
    ) {
        let mut n = n;
        n[0] |= 1;
        assert_prime_test_matches(&big(&n), seed);
    }
}

#[test]
fn modpow_edge_cases_match_reference() {
    let moduli = [
        BigUint::one(),
        BigUint::from(3u64),
        BigUint::from(u64::MAX),
        big(&[u64::MAX, u64::MAX]),
        big(&[1, 0, 0, 1 << 63]),
        big(&[u64::MAX; 8]),
        big(&[7; 9]),
        BigUint::from(1u64 << 40),
    ];
    for m in &moduli {
        let bases = [
            BigUint::zero(),
            BigUint::one(),
            m.clone(),
            m.add(&BigUint::one()),
            m.mul(m).add(&BigUint::from(5u64)),
            m.sub(&BigUint::one()),
        ];
        let exps = [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from(2u64),
            BigUint::from(65537u64),
            m.clone(),
        ];
        for base in &bases {
            for exp in &exps {
                assert_eq!(
                    base.modpow(exp, m),
                    reference::modpow(base, exp, m),
                    "{base}^{exp} mod {m}"
                );
            }
        }
    }
}

#[test]
fn prime_test_matches_reference_on_pseudoprimes_and_semiprimes() {
    // Carmichael numbers, strong pseudoprimes to base 2 (2047) and to bases
    // 2, 3, 5 and 7 (3215031751), and a wide odd value past the Montgomery
    // widths.
    for v in [561u64, 41041, 2047, 3215031751] {
        for seed in 1..20 {
            assert!(!assert_prime_test_matches(&BigUint::from(v), seed));
        }
    }
    assert_prime_test_matches(&big(&[0x1234_5677; 9]), 3);
    // Products of two 64-bit primes survive trial division and fail in the
    // witness rounds; the primes themselves run all 16 rounds.
    let mut rng = xorshift(0x5eed);
    for seed in 1..20 {
        let p = reference_prime(1, &mut rng);
        let q = reference_prime(1, &mut rng);
        assert!(assert_prime_test_matches(&p, seed));
        assert!(!assert_prime_test_matches(&p.mul(&q), seed));
    }
    for limbs in [2, 4] {
        let p = reference_prime(limbs, &mut rng);
        assert!(assert_prime_test_matches(&p, 7));
    }
}

/// A random full-width prime of `limbs` limbs, found with the reference
/// test only, so a broken fast path fails the comparison instead of
/// looping in `gen_prime`.
fn reference_prime(limbs: usize, rng: &mut impl FnMut() -> u64) -> BigUint {
    loop {
        let mut v: Vec<u64> = (0..limbs).map(|_| rng()).collect();
        v[0] |= 1;
        v[limbs - 1] |= 1 << 63;
        let n = big(&v);
        if reference::is_probable_prime(&n, 16, &mut *rng) {
            return n;
        }
    }
}
