//! Inputs from outside the program are checked once, by the type that
//! owns the rule, and a malformed one is an error — never a panic:
//!
//! * `ArithCircuit::try_new` accepts exactly the word-level interface
//!   (`1..=kind.max_width()`, `2w` inputs, `kind.out_width(w)` outputs);
//! * `from_spec_ref` rejects any string that does not name a circuit;
//! * a `.afps` corpus holding a record outside the width domain fails
//!   the stream, the flow and `POST /characterize/batch` cleanly, and a
//!   netlist header claiming more gates than its bytes hold decodes to
//!   `None` without reserving for them;
//! * `http::read_request` answers any byte string with a request, a
//!   clean close (no bytes at all) or `ReadError::Bad`, whose 400 body is
//!   JSON.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use afp_circuits::{from_spec_ref, stream_library, ArithCircuit, ArithKind, LibrarySource};
use afp_netlist::{NetId, Netlist};
use afp_runtime::Key128;
use afp_serve::http::{error_body, read_request, ReadError, RequestReader};
use afp_serve::{serve, ServeConfig};
use approxfpgas::{Flow, FlowConfig};

/// A netlist with `inputs` primary inputs and `outputs` primary outputs,
/// each output wired to an input (or to constant 0 without inputs).
fn netlist_with(inputs: usize, outputs: usize) -> Netlist {
    let mut n = Netlist::new("shape");
    let ins = n.add_inputs(inputs);
    let zero = n.constant(false);
    let outs: Vec<NetId> = (0..outputs)
        .map(|i| {
            if ins.is_empty() {
                zero
            } else {
                ins[i % ins.len()]
            }
        })
        .collect();
    n.set_outputs(outs);
    n
}

/// The system allocator, recording the largest single allocation each
/// thread asks for, so a test can bound what a decoder reserves.
struct Biggest;

thread_local! {
    static BIGGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards unchanged to `System`; the thread-local
// bookkeeping is const-initialized and never allocates.
unsafe impl GlobalAlloc for Biggest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BIGGEST.with(|b| b.set(b.get().max(layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BIGGEST.with(|b| b.set(b.get().max(new_size)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Biggest = Biggest;

#[test]
fn a_netlist_header_claiming_2_pow_40_gates_decodes_to_none_without_reserving_them() {
    // Name length 0, 0 inputs, 2^40 gates (a 6-byte varint), then one
    // NOT gate whose operand delta points before the netlist.
    let mut payload = vec![0, 0];
    afp_store::bytes::put_uvarint(&mut payload, 1 << 40);
    payload.extend_from_slice(&[3, 1]);
    assert_eq!(payload.len(), 10);
    BIGGEST.with(|b| b.set(0));
    let decoded = std::panic::catch_unwind(|| {
        afp_store::decode_netlist(&mut afp_store::ByteReader::new(&payload))
    });
    let biggest = BIGGEST.with(Cell::get);
    assert!(matches!(decoded, Ok(None)), "{decoded:?}");
    // The reservation is capped by the 2 bytes left: one gate.
    assert!(biggest <= 64, "decoding reserved {biggest} bytes");
}

/// A sealed `.afps` corpus at `path` holding one record: a 33-bit
/// "adder" whose interface is otherwise well formed (66 inputs, 34
/// outputs). Written frame by frame, since no `ArithCircuit` of that
/// width can exist to hand to `write_library`.
fn write_add33_corpus(path: &Path) {
    let mut payload = vec![ArithKind::Adder.code()];
    afp_store::bytes::put_uvarint(&mut payload, 33);
    afp_store::encode_netlist(&netlist_with(66, 34), &mut payload);
    // Record version 1 is the circuit encoding `stream_library` reads.
    let mut writer = afp_store::StoreWriter::create(path, 1).unwrap();
    writer.append(Key128 { hi: 3, lo: 3 }, &payload).unwrap();
    writer.finish_sealed().unwrap();
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("afp-input-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn an_out_of_domain_corpus_record_is_invalid_data() {
    let dir = scratch("corpus");
    let path = dir.join("add33.afps");
    write_add33_corpus(&path);

    let items: Vec<_> = stream_library(&path).unwrap().collect();
    assert_eq!(items.len(), 1);
    let err = items.into_iter().next().unwrap().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("width 33"), "{err}");

    let flow = Flow::new(FlowConfig {
        threads: 1,
        ..FlowConfig::default()
    });
    match flow.run_source(&LibrarySource::Stored(path)) {
        Ok(_) => panic!("a 33-bit adder record must not characterize"),
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One request over a fresh connection: (status, body).
fn request(addr: SocketAddr, head: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    (status, body.to_string())
}

#[test]
fn batch_post_of_an_out_of_domain_corpus_answers_400() {
    let dir = scratch("batch");
    let path = dir.join("add33.afps");
    write_add33_corpus(&path);
    let corpus = std::fs::read(&path).unwrap();
    let server = serve(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().unwrap();
    let (status, body) = request(
        addr,
        &format!(
            "POST /characterize/batch HTTP/1.1\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n",
            corpus.len()
        ),
        &corpus,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.starts_with("{\"error\":\""), "{body}");
    assert!(body.contains("width 33"), "{body}");
    // The one worker is still serving.
    let (status, _) = request(
        addr,
        "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"",
    );
    assert_eq!(status, 200);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `try_new` never panics, and accepts a triple exactly when the width
    /// is in the kind's domain and both counts match it. `shape` picks
    /// matching counts, a random input count, or a random output count,
    /// so every check is both passed and failed.
    #[test]
    fn try_new_accepts_exactly_the_interface_domain(
        mul in 0u8..2,
        width in 0usize..=64,
        shape in 0u8..3,
        inputs in 0usize..=130,
        outputs in 0usize..=130,
    ) {
        let kind = if mul == 1 { ArithKind::Multiplier } else { ArithKind::Adder };
        let (inputs, outputs) = match shape {
            0 => (2 * width, kind.out_width(width)),
            1 => (inputs, kind.out_width(width)),
            _ => (2 * width, outputs),
        };
        let valid = (1..=kind.max_width()).contains(&width)
            && inputs == 2 * width
            && outputs == kind.out_width(width);
        let got = ArithCircuit::try_new(kind, width, netlist_with(inputs, outputs));
        prop_assert_eq!(got.is_ok(), valid, "{kind}{width} {inputs}/{outputs}: {got:?}");
        if let Ok(c) = got {
            prop_assert_eq!((c.kind(), c.width()), (kind, width));
        }
    }
}

/// Spec-ref families per kind, plus names no generator has.
const FAMILIES: [&[&str]; 2] = [
    &[
        "rca", "cla", "csel", "cskip", "loa", "trunc", "nocarry", "afa-sic", "afa-ign", "afa-cib",
        "gear", "bogus", "",
    ],
    &[
        "array",
        "wallace",
        "trunc",
        "compressor",
        "broken",
        "udm",
        "bogus",
        "",
    ],
];
const JUNK: [&str; 5] = [":", " ", "é", "\u{0}", "x"];

/// One spec parameter from a draw: usually small next to `width`, else
/// huge (overflowing any sum), negative or hex.
fn param(draw: usize, width: usize) -> String {
    match draw % 6 {
        0 => (u64::MAX - (draw as u64 >> 3)).to_string(),
        1 => "-1".to_string(),
        2 => format!("{:x}", draw >> 3),
        _ => ((draw >> 3) % (width + 2)).to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    /// `from_spec_ref` answers every string with a circuit or an error,
    /// and a circuit it builds has a valid interface. Each case draws a
    /// width in 0..40 and zero to three parameters, and asks every family
    /// of both kinds with them; one case in four gains a junk fragment.
    #[test]
    fn from_spec_ref_never_panics(picks in proptest::collection::vec(0usize..1 << 20, 6..7)) {
        let width = picks[0] % 40;
        let params: Vec<String> = picks[2..2 + picks[1] % 4]
            .iter()
            .map(|&d| param(d, width))
            .collect();
        for (kind, families) in ["add", "mul"].into_iter().zip(FAMILIES) {
            for family in families {
                let mut spec = format!("{kind}{width}:{family}");
                for p in &params {
                    spec.push(':');
                    spec.push_str(p);
                }
                if picks[5] % 4 == 0 {
                    let at = (picks[5] / 4) % (spec.len() + 1);
                    spec.insert_str(at, JUNK[(picks[5] / 4) % JUNK.len()]);
                }
                let outcome = std::panic::catch_unwind(|| from_spec_ref(&spec));
                prop_assert!(outcome.is_ok(), "`{spec}` panicked");
                if let Ok(Ok(c)) = outcome {
                    let kind = c.kind();
                    prop_assert!(spec.starts_with(kind.mnemonic()), "`{spec}`");
                    prop_assert!(kind.check_width(c.width()).is_ok(), "`{spec}`");
                    prop_assert_eq!(c.netlist().num_inputs(), 2 * c.width());
                    prop_assert_eq!(c.netlist().num_outputs(), kind.out_width(c.width()));
                }
            }
        }
    }
}

/// Whether `body` is `{"error":"<JSON string>"}` plus a newline.
fn is_json_error(body: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    let Some(inner) = text
        .strip_prefix("{\"error\":\"")
        .and_then(|t| t.strip_suffix("\"}\n"))
    else {
        return false;
    };
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return false,
            '\\' => match chars.next() {
                Some('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') => {}
                Some('u') => {
                    if !(0..4).all(|_| chars.next().is_some_and(|h| h.is_ascii_hexdigit())) {
                        return false;
                    }
                }
                _ => return false,
            },
            c if c < ' ' => return false,
            _ => {}
        }
    }
    true
}

/// `read_request` on `bytes` as the whole connection: never a panic, a
/// clean close only for no bytes, and a `Bad` reason whose 400 body is
/// JSON. Returns whether the head was rejected.
fn read_checked(bytes: &[u8]) -> Result<bool, TestCaseError> {
    let outcome = std::panic::catch_unwind(|| {
        read_request(&mut Cursor::new(bytes), &mut RequestReader::new())
    });
    let Ok(result) = outcome else {
        return Err(TestCaseError(format!("panicked on {bytes:?}")));
    };
    match result {
        Ok(request) => {
            prop_assert!(!bytes.is_empty());
            prop_assert_eq!(request.method.to_ascii_uppercase(), request.method);
            Ok(false)
        }
        Err(ReadError::Closed) => {
            prop_assert!(bytes.is_empty(), "closed on {:?}", bytes);
            Ok(false)
        }
        Err(ReadError::Bad(reason)) => {
            let body = error_body(&reason);
            prop_assert!(is_json_error(&body), "{}", String::from_utf8_lossy(&body));
            Ok(true)
        }
    }
}

/// Well-formed heads the mutations start from.
const HEADS: [&str; 4] = [
    "GET /characterize?spec=mul8:trunc:3&target=lut4-ice40 HTTP/1.1\r\nHost: x\r\n\r\n",
    "POST /characterize?kind=add&width=8 HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody",
    "GET /estimate?spec=add8%3Arca HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
    "GET /stats HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
];

/// Bytes a mutation splices in: separators, escapes, digits, controls,
/// a stray continuation byte and non-ASCII text.
const SPLICES: [&[u8]; 10] = [
    b"\r\n",
    b" ",
    b":",
    b"%",
    b"%zz",
    b"99999999999999999999",
    b"\0",
    b"\x80",
    "é\"\\".as_bytes(),
    b"\r\n\r\n",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Arbitrary bytes: a request, a clean close or a JSON 400.
    #[test]
    fn read_request_answers_arbitrary_bytes(bytes in proptest::collection::vec(0u8..=255, 0..200)) {
        read_checked(&bytes)?;
    }

    /// Mutated valid heads: each draw deletes, replaces or splices at a
    /// position, or truncates. A head cut before its blank line, one
    /// holding a byte that is not UTF-8, and one with an unparsable
    /// `Content-Length` are always `Bad`.
    #[test]
    fn read_request_answers_mutated_heads(
        head in 0usize..4,
        edits in proptest::collection::vec((0u8..4, 0usize..1 << 16, 0usize..10), 1..4),
    ) {
        let mut bytes = HEADS[head].as_bytes().to_vec();
        prop_assert!(!read_checked(&bytes)?, "the unmutated head must parse");
        for &(op, at, pick) in &edits {
            let at = at % (bytes.len() + 1);
            match op {
                0 if at < bytes.len() => {
                    bytes.remove(at);
                }
                1 if at < bytes.len() => bytes[at] = SPLICES[pick][0],
                2 => {
                    bytes.splice(at..at, SPLICES[pick].iter().copied());
                }
                _ => bytes.truncate(at),
            }
        }
        let rejected = read_checked(&bytes)?;
        let end = bytes.windows(4).position(|w| w == b"\r\n\r\n");
        let head_bytes = &bytes[..end.map_or(bytes.len(), |e| e + 4)];
        if !bytes.is_empty() && end.is_none() {
            prop_assert!(rejected, "a head without its blank line parsed: {:?}", bytes);
        }
        if std::str::from_utf8(head_bytes).is_err() {
            prop_assert!(rejected, "a non-UTF-8 head parsed: {:?}", bytes);
        }
        let bad_length = String::from_utf8_lossy(head_bytes).split("\r\n").skip(1).any(|line| {
            line.split_once(':').is_some_and(|(name, value)| {
                name.trim().eq_ignore_ascii_case("content-length")
                    && value.trim().parse::<usize>().is_err()
            })
        });
        if bad_length {
            prop_assert!(rejected, "an unparsable Content-Length parsed: {:?}", bytes);
        }
    }
}
