//! Inputs from outside the program are checked once, by the type that
//! owns the rule, and a malformed one is an error — never a panic:
//!
//! * `ArithCircuit::try_new` accepts exactly the word-level interface
//!   (`1..=kind.max_width()`, `2w` inputs, `kind.out_width(w)` outputs);
//! * `from_spec_ref` rejects any string that does not name a circuit;
//! * a `.afps` corpus holding a record outside the width domain fails
//!   the stream, the flow and `POST /characterize/batch` cleanly.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use afp_circuits::{from_spec_ref, stream_library, ArithCircuit, ArithKind, LibrarySource};
use afp_netlist::{NetId, Netlist};
use afp_runtime::Key128;
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
