//! Seeded, structure-aware mutation of every wire decoder.
//!
//! Each decoder (`decode_request`, `decode_response`,
//! `decode_admin_request`, `decode_admin_response`) gets valid payloads of
//! its frame kind, mutated where the format is fragile: every bit of the
//! fixed-size head, every length and count field set to 0, 1, its true
//! value ±1, the payload length ±1 and `u32::MAX`, a cut at every field
//! boundary, and 256 seeded multi-bit flips. Every input must end in a
//! typed `WireError` or a valid decode — one that re-encodes to the input
//! — never in a panic, and no allocation made while decoding may be
//! larger than the input.

use cerl_net::wire::{
    decode_admin_request, decode_admin_response, decode_request, decode_response,
    encode_admin_request, encode_admin_response, encode_request, encode_response, AdminOp,
    AdminRequest, AdminResponse, Request, Response, Status, WireError,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Forwards to the system allocator and, while the calling thread is
/// decoding, records the largest allocation it asks for.
struct Largest;

thread_local! {
    /// Whether this thread is inside a measured decode.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    /// Largest allocation (or reallocation) size seen while measuring.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    // `try_with`: the slots may already be gone while a thread exits.
    let _ = MEASURING.try_with(|on| {
        if on.get() {
            let _ = LARGEST.try_with(|max| max.set(max.get().max(size)));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments,
// so `System`'s guarantees are the ones the caller gets; the bookkeeping
// only touches const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// SplitMix64: a seeded stream of mutation choices.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One frame kind: its decoder, its encoder, and where its fields lie.
struct Format<T> {
    name: &'static str,
    decode: fn(&[u8]) -> Result<T, WireError>,
    encode: fn(&T, &mut Vec<u8>),
    /// Bytes before the first variable-length field.
    head: usize,
    /// Offsets of the `u32` length and count fields.
    counts: &'static [usize],
    /// Cut points of a valid payload: every field boundary short of its
    /// full length.
    boundaries: fn(&[u8]) -> Vec<usize>,
}

/// `value` as one frame payload (the bytes after the length prefix).
fn payload<T>(format: &Format<T>, value: &T) -> Vec<u8> {
    let mut frame = Vec::new();
    (format.encode)(value, &mut frame);
    frame.split_off(4)
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// Every mutation of `valid` this suite tries.
fn mutations<T>(format: &Format<T>, valid: &[u8], rng: &mut SplitMix) -> Vec<Vec<u8>> {
    let mut out = vec![valid.to_vec()];
    for bit in 0..format.head.min(valid.len()) * 8 {
        let mut m = valid.to_vec();
        m[bit / 8] ^= 1 << (bit % 8);
        out.push(m);
    }
    for &at in format.counts {
        let truth = read_u32(valid, at);
        let len = valid.len() as u32;
        for v in [
            0,
            1,
            truth.wrapping_sub(1),
            truth.wrapping_add(1),
            len - 1,
            len,
            len + 1,
            u32::MAX,
        ] {
            let mut m = valid.to_vec();
            m[at..at + 4].copy_from_slice(&v.to_le_bytes());
            out.push(m);
        }
    }
    for cut in (format.boundaries)(valid) {
        out.push(valid[..cut].to_vec());
    }
    for _ in 0..256 {
        let mut m = valid.to_vec();
        for _ in 0..1 + rng.below(4) {
            let bit = rng.below(m.len() * 8);
            m[bit / 8] ^= 1 << (bit % 8);
        }
        out.push(m);
    }
    out
}

/// Decode every mutation of every payload in `valid`, checking the
/// invariants, and that the mutations reach both outcomes.
fn fuzz<T: std::fmt::Debug>(format: &Format<T>, valid: &[T], seed: u64) {
    let mut rng = SplitMix(seed);
    let (mut decoded, mut refused) = (0, 0);
    for value in valid {
        let good = payload(format, value);
        for input in mutations(format, &good, &mut rng) {
            LARGEST.with(|max| max.set(0));
            MEASURING.with(|on| on.set(true));
            let outcome = catch_unwind(AssertUnwindSafe(|| (format.decode)(&input)));
            MEASURING.with(|on| on.set(false));
            let largest = LARGEST.with(Cell::get);
            let name = format.name;
            let outcome = outcome.unwrap_or_else(|_| panic!("{name} panicked on {input:02x?}"));
            assert!(
                largest <= input.len(),
                "{name} allocated {largest} bytes for a {}-byte input {input:02x?}",
                input.len()
            );
            match outcome {
                Ok(v) => {
                    assert_eq!(
                        payload(format, &v),
                        input,
                        "{name}: {v:?} is not what the input encodes"
                    );
                    decoded += 1;
                }
                Err(_) => refused += 1,
            }
        }
    }
    let name = format.name;
    assert!(
        decoded >= valid.len() && refused >= 100,
        "{name}: {decoded} decoded, {refused} refused"
    );
}

/// Boundaries of a request payload: the head's fields, each domain tag
/// and each covariate.
fn request_boundaries(p: &[u8]) -> Vec<usize> {
    let (rows, cols) = (read_u32(p, 16) as usize, read_u32(p, 20) as usize);
    let mut cuts = vec![0, 1, 2, 3, 4, 12, 16, 20];
    cuts.extend((0..rows * (1 + cols)).map(|k| 24 + 8 * k));
    cuts
}

/// Boundaries of a response or admin response payload: the head's
/// fields, then each value of an `Ok` response (its ITEs, 8 bytes each)
/// or each byte of the text.
fn counted_boundaries(p: &[u8]) -> Vec<usize> {
    let ites = p[2] == 1 && p[3] == Status::Ok as u8;
    let mut cuts = vec![0, 1, 2, 3, 4, 12];
    cuts.extend((16..p.len()).step_by(if ites { 8 } else { 1 }));
    cuts
}

fn admin_request_boundaries(_: &[u8]) -> Vec<usize> {
    vec![0, 1, 2, 3, 4]
}

#[test]
fn requests_decode_or_fail_typed() {
    let format = Format {
        name: "decode_request",
        decode: decode_request,
        encode: encode_request,
        head: 24,
        counts: &[16, 20],
        boundaries: request_boundaries,
    };
    let valid = [
        Request {
            request_id: 0xDEAD_BEEF_0BAD_F00D,
            deadline_ms: 250,
            cols: 3,
            tags: vec![7, 7, 9],
            covariates: vec![
                0.5,
                -1.25,
                f64::MIN_POSITIVE,
                0.0,
                -0.0,
                3.5,
                1e300,
                -7.0,
                42.0,
            ],
        },
        Request {
            request_id: 1,
            deadline_ms: 0,
            cols: 1,
            tags: vec![u64::MAX],
            covariates: vec![2.0],
        },
        Request {
            request_id: 2,
            deadline_ms: u32::MAX,
            cols: 0,
            tags: vec![],
            covariates: vec![],
        },
    ];
    fuzz(&format, &valid, 0xC3_01);
}

#[test]
fn responses_decode_or_fail_typed() {
    let format = Format {
        name: "decode_response",
        decode: decode_response,
        encode: encode_response,
        head: 16,
        counts: &[12],
        boundaries: counted_boundaries,
    };
    let valid = [
        Response::Ite {
            request_id: 11,
            ite: vec![1.5, -2.25, f64::NEG_INFINITY, f64::NAN],
        },
        Response::Ite {
            request_id: 12,
            ite: vec![],
        },
        Response::Error {
            request_id: 13,
            status: Status::MalformedRequest,
            detail: "payload truncated while reading row count".into(),
        },
        Response::Error {
            request_id: 14,
            status: Status::Overloaded,
            detail: String::new(),
        },
    ];
    fuzz(&format, &valid, 0xC3_02);
}

#[test]
fn admin_requests_decode_or_fail_typed() {
    let format = Format {
        name: "decode_admin_request",
        decode: decode_admin_request,
        encode: encode_admin_request,
        head: 12,
        counts: &[],
        boundaries: admin_request_boundaries,
    };
    let valid = [AdminOp::Metrics, AdminOp::Health, AdminOp::TraceDump]
        .map(|op| AdminRequest { request_id: 77, op });
    fuzz(&format, &valid, 0xC3_03);
}

#[test]
fn admin_responses_decode_or_fail_typed() {
    let format = Format {
        name: "decode_admin_response",
        decode: decode_admin_response,
        encode: encode_admin_response,
        head: 16,
        counts: &[12],
        boundaries: counted_boundaries,
    };
    let valid = [
        AdminResponse {
            request_id: 21,
            status: Status::Ok,
            body: "ok:1:0".into(),
        },
        AdminResponse {
            request_id: 22,
            status: Status::Ok,
            body: "cerl_net_requests_total 5\ncerl_net_conn_open{conn=\"3\"} 1\n".into(),
        },
        AdminResponse {
            request_id: 23,
            status: Status::ServeFault,
            body: String::new(),
        },
    ];
    fuzz(&format, &valid, 0xC3_04);
}
