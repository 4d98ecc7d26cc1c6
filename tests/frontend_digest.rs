//! Whole-frontend oracle: one FNV-1a digest over everything the Verilog
//! frontend produces for a fixed corpus, plus the corpus's ok/err split.
//!
//! A parsed source contributes its module name, every node's kind, name,
//! fanins and fanouts in id order, its DFF clock/reset metadata and its
//! `canonical_form`; a rejected source contributes the error's line,
//! column and `Display` text. The constants were recorded from a
//! known-good frontend, so any change to what is accepted, to the graph a
//! source elaborates to (node order and fanout order included), to the
//! canonical form, or to the first error reported and its position moves
//! the digest.
//!
//! The corpus:
//!
//! - the 8 Table I circuits, synthesized and written, as written and with
//!   their instance lines reversed;
//! - writer round-trips of `random_netlist(seed, 30 + seed)` for 200 seeds;
//! - 10k stacked mutations (truncate, bit flip, delete, insert) of two
//!   small sources: the b01 fixture and a 40-cell random netlist;
//! - every char-boundary prefix of the b01 fixture;
//! - hand-written sources for the elaborator's rarer paths: tie names
//!   that collide with declared names, several constants on DFF control
//!   pins, assign chains and cycles, and errors after multibyte
//!   characters.

use moss_netlist::{
    canonical_form, parse_verilog_design, write_verilog, NetlistError, VerilogDesign,
};
use moss_prng::rngs::StdRng;
use moss_prng::{Rng, SeedableRng};
use moss_synth::{synthesize, SynthOptions};

const B01: &str = include_str!("../crates/netlist/tests/fixtures/b01_net.v");

/// Digest of the corpus below, and how many of its sources parse.
const PINNED_DIGEST: u64 = 0x93fe_71d1_492e_80ee;
const PINNED_OK: usize = 1_076;
const PINNED_ERR: usize = 11_610;

#[derive(Debug, PartialEq, Eq)]
struct Digest {
    hash: u64,
    ok: usize,
    err: usize,
}

impl Digest {
    fn new() -> Digest {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            ok: 0,
            err: 0,
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A length-prefixed string, so adjacent fields cannot run together.
    fn text(&mut self, s: &str) {
        self.num(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn num(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn design(&mut self, d: &VerilogDesign) {
        let nl = &d.netlist;
        self.text(nl.name());
        self.num(nl.node_count() as u64);
        for id in nl.node_ids() {
            self.text(&format!("{:?}", nl.kind(id)));
            self.text(nl.node(id).name());
            for ids in [nl.fanins(id), nl.fanouts(id)] {
                self.num(ids.len() as u64);
                for f in ids {
                    self.num(f.index() as u64);
                }
            }
        }
        self.num(d.dffs.len() as u64);
        for dff in &d.dffs {
            self.num(dff.node.index() as u64);
            self.text(dff.clock.as_deref().unwrap_or("\0none"));
            self.text(&format!("{:?}", dff.reset));
        }
        self.text(&canonical_form(nl));
    }

    fn record(&mut self, src: &str) {
        match parse_verilog_design(src) {
            Ok(d) => {
                self.ok += 1;
                self.bytes(b"ok");
                self.design(&d);
            }
            Err(NetlistError::Verilog(e)) => {
                self.err += 1;
                self.bytes(b"verilog");
                self.num(u64::from(e.line));
                self.num(u64::from(e.column));
                self.text(&e.to_string());
            }
            Err(other) => {
                self.err += 1;
                self.bytes(b"netlist");
                self.text(&other.to_string());
            }
        }
    }
}

/// Sources that reach what the generated corpus rarely does.
const EDGE_CASES: &[&str] = &[
    // Tie cells take the first free `const0`, `const0_1`, ... name.
    "module t (input a, output y, output z);\n\
       wire const0, const1, const0_1;\n\
       INV_X1 u0 (.A(a), .Y(const0));\n\
       INV_X1 u1 (.A(const0), .Y(const1));\n\
       NAND2_X1 const0_2 (.A(const1), .B(1'b0), .Y(const0_1));\n\
       AND2_X1 u3 (.A(const0_1), .B(1'b1), .Y(y));\n\
       assign z = 1'b0;\n\
     endmodule",
    // Control-pin constants are checked CK, RN, SN, whatever the source
    // order; RN with SN is reported before either.
    "module t (input a, output q);\n  DFF_X1 r (.D(a), .SN(1'b1), .RN(1'b0), .CK(1'b0), .Q(q));\nendmodule",
    "module t (input a, output q);\n  DFF_X1 r (.D(a), .SN(1'b1), .CK(1'b0), .Q(q));\nendmodule",
    "module t (input a, output q);\n  DFF_X1 r (.D(a), .SN(1'b1), .Q(1'b0));\nendmodule",
    // Clock, reset and set nets resolved through assign chains.
    "module t (input a, input c, output k, output q, output p);\n\
       assign k = c;\n\
       DFF_X1 r0 (.D(a), .CK(k), .RN(a), .Q(q));\n\
       DFF_X1 r1 (.D(q), .CK(k), .SN(k), .Q(p));\n\
     endmodule",
    // Assign chains through output ports, constant-driven outputs read
    // by cells, and cycles.
    "module t (input a, output x, output y, output z, output w);\n\
       INV_X1 u (.A(a), .Y(z));\n\
       assign y = z;\n  assign x = y;\n  assign w = 1'b1;\n\
     endmodule",
    "module t (input a, output y, output z);\n  assign y = 1'b1;\n  NAND2_X1 u (.A(y), .B(a), .Y(z));\nendmodule",
    "module t (input a, output x, output y, output z);\n\
       assign x = y;\n  assign y = x;\n  INV_X1 u (.A(x), .Y(z));\nendmodule",
    "module t (output x, output y);\n  assign x = y;\n  assign y = ghost;\nendmodule",
    // A control net that is declared but undriven; an instance name read
    // as a net.
    "module t (input a, output q);\n  wire w;\n  DFF_X1 r (.D(a), .CK(w), .Q(q));\nendmodule",
    "module t (input a, output y);\n  wire n;\n  INV_X1 u1 (.A(a), .Y(n));\n  INV_X1 u2 (.A(u1), .Y(y));\nendmodule",
    // Namespace and direction errors.
    "module t (a, y);\n  wire w;\n  input w;\nendmodule",
    "module t (a, y);\n  input a;\n  input a;\nendmodule",
    "module t (a, a);\nendmodule",
    "module t (input a, output y);\n  wire u1;\n  INV_X1 u1 (.A(a), .Y(y));\nendmodule",
    "module t (input a, output y);\n  INV_X1 u (.A(a), .CK(a), .Y(y));\nendmodule",
    "module t (input a, output y);\n  MUX2_X1 u (.A(a), .B(a), .Y(y));\nendmodule",
    "module t (input a, output y);\n  INV_X1 u (.A(a), .Y(1'b0));\nendmodule",
    "module t ();\nendmodule",
    // Escaped keywords and multibyte names; errors after multibyte
    // characters on the same line; CRLF line ends; form feed.
    "module \\wire  (input \\é , output \\module );\r\n  INV_X1 \\ü1  (.A(\\é ), .Y(\\module ));\r\nendmodule\r\n",
    "module t (input \\é , output y); /* ü */ INV_X1 u (.A(\\é ), .Y(y)) endmodule",
    "module t (input \\é\x0c, output y);\nendmodule",
    "module t (input a, output y); // ü\n  INV_X1 u (.A(a), .Y(y)); é\nendmodule",
];

/// `src` with its cell-instance lines in reverse order: the same circuit,
/// declared in a different order.
fn reversed_instances(src: &str) -> String {
    let mut head = Vec::new();
    let mut instances = Vec::new();
    let mut tail = Vec::new();
    for line in src.lines() {
        let t = line.trim_start();
        if t.starts_with("module") || t.starts_with("wire") {
            head.push(line);
        } else if t.starts_with("assign") || t.starts_with("endmodule") {
            tail.push(line);
        } else if !t.is_empty() {
            instances.push(line);
        }
    }
    instances.reverse();
    let lines: Vec<&str> = head.into_iter().chain(instances).chain(tail).collect();
    lines.join("\n")
}

/// One seeded corruption of `src`: truncation, bit flip, byte deletion,
/// or insertion of a structurally interesting byte.
fn mutate(src: &str, rng: &mut StdRng) -> String {
    let mut bytes = src.as_bytes().to_vec();
    match rng.gen_range(0..4u32) {
        0 => {
            let cut = rng.gen_range(0..=bytes.len());
            bytes.truncate(cut);
        }
        1 => {
            if !bytes.is_empty() {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8u32);
            }
        }
        2 => {
            if !bytes.is_empty() {
                let i = rng.gen_range(0..bytes.len());
                bytes.remove(i);
            }
        }
        _ => {
            let i = rng.gen_range(0..=bytes.len());
            let choices = b"();.,= \\'[\xc3\xa9";
            let c = choices[rng.gen_range(0..choices.len())];
            bytes.insert(i, c);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn frontend_output_matches_the_pinned_digest() {
    let mut digest = Digest::new();

    for m in moss_datagen::benchmark_suite() {
        let synth = synthesize(&m, &SynthOptions::default()).expect("Table I synthesizes");
        let text = write_verilog(&synth.netlist);
        digest.record(&text);
        digest.record(&reversed_instances(&text));
    }

    for seed in 0..200u64 {
        let nl = moss_datagen::random_netlist(seed, 30 + seed as usize);
        digest.record(&write_verilog(&nl));
    }

    let sources = [
        B01.to_owned(),
        write_verilog(&moss_datagen::random_netlist(0xd16e, 40)),
    ];
    let mut rng = StdRng::seed_from_u64(0xd1_6e57);
    for round in 0..10_000usize {
        let mut src = sources[round % sources.len()].clone();
        for _ in 0..rng.gen_range(1..=3u32) {
            src = mutate(&src, &mut rng);
        }
        digest.record(&src);
    }

    for cut in (0..=B01.len()).filter(|&i| B01.is_char_boundary(i)) {
        digest.record(&B01[..cut]);
    }

    for src in EDGE_CASES {
        digest.record(src);
    }

    assert_eq!(
        digest,
        Digest {
            hash: PINNED_DIGEST,
            ok: PINNED_OK,
            err: PINNED_ERR,
        },
        "the Verilog frontend's output changed on the oracle corpus"
    );
}
