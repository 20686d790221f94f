//! The SL rule catalog and the line/token scanner that applies it.
//!
//! Matching runs over *sanitized* source: comments and string/char
//! literals are blanked first (so a lint ID mentioned in a doc comment
//! never fires), and `#[cfg(test)]` regions are masked for the rules
//! where test code is legitimately exempt (SL004/SL005 — tests may
//! assert on raw picosecond values and use `expect` freely). SL010 looks
//! across files, so it runs over the whole tree (`scan_uncalled`); a call
//! from test code does not keep a function alive.

use crate::Violation;
use std::collections::HashMap;

/// Catalog metadata for one rule.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable ID (`SLxxx`).
    pub id: &'static str,
    /// One-line invariant statement.
    pub summary: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
}

/// The stable rule catalog. IDs are a contract: never renumber.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "SL001",
        summary: "no wall-clock time (Instant/SystemTime) — simulations must be bit-deterministic",
        scope: "all simulation crates (everything except snacc-bench and snacc-lint)",
    },
    RuleInfo {
        id: "SL002",
        summary: "no unseeded randomness (thread_rng/rand::random/from_entropy) — all randomness flows through snacc_sim::rng::SimRng",
        scope: "everywhere except crates/snacc-sim/src/rng.rs",
    },
    RuleInfo {
        id: "SL003",
        summary: "no threads/locks/atomics in single-threaded DES crates",
        scope: "all simulation crates (everything except snacc-bench and snacc-lint)",
    },
    RuleInfo {
        id: "SL004",
        summary: "no panic paths (unwrap/expect/panic!/assert!) in wire-decode modules — decoding returns Result",
        scope: "snacc-nvme spec.rs + prp.rs, snacc-net frame.rs (non-test code)",
    },
    RuleInfo {
        id: "SL005",
        summary: "no raw u64 picosecond arithmetic — time math goes through SimTime/SimDuration",
        scope: "everywhere outside snacc-sim (non-test code)",
    },
    RuleInfo {
        id: "SL006",
        summary: "no RefCell borrow guard held across an Engine::schedule call (borrow-across-event hazard)",
        scope: "all simulation crates (everything except snacc-bench and snacc-lint)",
    },
    RuleInfo {
        id: "SL007",
        summary: "no println!/eprintln! in model crates — observability goes through snacc-trace",
        scope: "all simulation crates (non-test code; tests/examples exempt)",
    },
    RuleInfo {
        id: "SL008",
        summary: "no .to_vec()/.clone() on payload buffers (`data`/`payload`) in model-crate hot paths — share snacc_sim::Payload windows; in the functional-media layer (snacc-mem, nand.rs) ANY .to_vec()/copy_from_slice() byte materialisation is flagged",
        scope: "all simulation crates (non-test code; tests/examples exempt)",
    },
    RuleInfo {
        id: "SL009",
        summary: "no `let _ = <place>;` (a path, field, tuple of those, or &/&mut of one) — it only silences unused-code lints; delete what it hides",
        scope: "everywhere (test code included)",
    },
    RuleInfo {
        id: "SL010",
        summary: "no uncalled `pub fn` — a public function whose name appears nowhere else in the workspace's non-test code (strings, comments and test code do not count) has no caller; delete it",
        scope: "definitions under crates/*/src (non-test code); uses in crates/, src/, examples/ and perfbench/src outside #[cfg(test)] regions and tests/ directories",
    },
];

/// Functional-media files where the zero-copy discipline is strict: the
/// segment store keeps written payload windows as metadata, so *any* byte
/// materialisation here (not just on `data`/`payload` receivers) defeats
/// the design and must be triaged in `lint-allow.toml`.
const MEDIA_STRICT: &[&str] = &["crates/snacc-mem/", "crates/snacc-nvme/src/nand.rs"];

/// Wire-decode modules subject to SL004.
const DECODE_MODULES: &[&str] = &[
    "crates/snacc-nvme/src/spec.rs",
    "crates/snacc-nvme/src/prp.rs",
    "crates/snacc-net/src/frame.rs",
];

/// Crate name a workspace-relative path belongs to (the root package is
/// `snacc`).
fn crate_of(rel_path: &str) -> &str {
    rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("snacc")
}

/// Crates that are part of the single-threaded deterministic simulation.
/// `snacc-bench` is the wall-clock measurement harness; `snacc-lint` is
/// host tooling.
fn is_sim_crate(krate: &str) -> bool {
    krate != "snacc-bench" && krate != "snacc-lint"
}

/// Blank comments and string/char literals, preserving line structure.
fn sanitize(source: &str) -> String {
    let b = source.as_bytes();
    let mut out = vec![b' '; b.len()];
    let mut i = 0;
    // Keep newlines so line numbers survive masking.
    for (idx, &ch) in b.iter().enumerate() {
        if ch == b'\n' {
            out[idx] = b'\n';
        }
    }
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == b'/' && b.get(i + 1) == Some(&b'*') {
            let mut depth = 1;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // Raw (byte) string: r"..." / r#"..."# / br#"..."#.
        if (c == b'r' || c == b'b') && (i == 0 || !is_ident(b[i - 1])) {
            let mut j = i;
            if b[j] == b'b' && b.get(j + 1) == Some(&b'r') {
                j += 1;
            }
            if b[j] == b'r' {
                let mut k = j + 1;
                while b.get(k) == Some(&b'#') {
                    k += 1;
                }
                if b.get(k) == Some(&b'"') {
                    let hashes = k - (j + 1);
                    let closer: Vec<u8> = std::iter::once(b'"')
                        .chain(std::iter::repeat_n(b'#', hashes))
                        .collect();
                    let mut m = k + 1;
                    while m < b.len() && !b[m..].starts_with(&closer) {
                        m += 1;
                    }
                    i = (m + closer.len()).min(b.len());
                    continue;
                }
            }
        }
        // Plain (byte) string.
        if c == b'"'
            || (c == b'b' && b.get(i + 1) == Some(&b'"') && (i == 0 || !is_ident(b[i - 1])))
        {
            if c == b'b' {
                i += 1;
            }
            i += 1; // opening quote
            while i < b.len() {
                if b[i] == b'\\' {
                    i += 2;
                } else if b[i] == b'"' {
                    i += 1;
                    break;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == b'\'' {
            if b.get(i + 1) == Some(&b'\\') {
                i += 2;
                while i < b.len() && b[i] != b'\'' {
                    i += 1;
                }
                i += 1;
                continue;
            }
            if b.get(i + 2) == Some(&b'\'') {
                i += 3;
                continue;
            }
            // Lifetime: keep the tick, fall through.
        }
        out[i] = c;
        i += 1;
    }
    // SAFETY-free conversion: `out` only contains ASCII substitutions of
    // a valid UTF-8 buffer at char boundaries, but masked multi-byte
    // chars become spaces byte-by-byte, which is still valid UTF-8
    // because every masked byte is replaced by b' '.
    String::from_utf8(out).unwrap_or_default()
}

/// Mark lines inside `#[cfg(test)]`-gated items (attr line through the
/// end of the item's brace block, or the terminating `;` for braceless
/// items).
fn test_mask(lines: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        mask[i] = true;
        let mut depth: i32 = 0;
        let mut opened = false;
        let mut j = i + 1;
        // Include the attr line itself if the item starts on it.
        let mut scan = vec![i];
        scan.extend(j..lines.len());
        for &k in &scan {
            if k != i {
                mask[k] = true;
            }
            for ch in lines[k].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    ';' if !opened && k != i => {
                        // Braceless gated item (e.g. `#[cfg(test)] use ..;`).
                        depth = 0;
                        opened = true;
                        break;
                    }
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                j = k + 1;
                break;
            }
            j = k + 1;
        }
        i = j;
    }
    mask
}

fn find_ident(line: &str, ident: &str) -> bool {
    let b = line.as_bytes();
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut start = 0;
    while let Some(pos) = line[start..].find(ident) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident(b[at - 1]);
        let end = at + ident.len();
        let after_ok = end >= b.len() || !is_ident(b[end]);
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

/// True when the line contains an identifier ending in `_ps` (raw
/// picosecond variable/function naming convention).
fn has_ps_suffix_ident(line: &str) -> bool {
    let b = line.as_bytes();
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut start = 0;
    while let Some(pos) = line[start..].find("_ps") {
        let at = start + pos;
        let end = at + 3;
        if end >= b.len() || !is_ident(b[end]) {
            return true;
        }
        start = at + 1;
    }
    false
}

struct FileCtx<'a> {
    rel_path: &'a str,
    krate: &'a str,
    raw_lines: Vec<&'a str>,
    clean_lines: Vec<String>,
    in_test: Vec<bool>,
    in_test_dir: bool,
}

impl FileCtx<'_> {
    fn violation(&self, rule: &'static str, line_idx: usize, message: String) -> Violation {
        Violation {
            rule,
            path: self.rel_path.to_string(),
            line: line_idx + 1,
            message,
            snippet: self.raw_lines[line_idx].trim().to_string(),
        }
    }
}

/// Scan one file's source. `rel_path` is workspace-relative with
/// forward slashes; it determines which rules apply.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Violation> {
    let clean = sanitize(source);
    let clean_lines: Vec<String> = clean.lines().map(|l| l.to_string()).collect();
    let clean_refs: Vec<&str> = clean_lines.iter().map(|s| s.as_str()).collect();
    let ctx = FileCtx {
        rel_path,
        krate: crate_of(rel_path),
        raw_lines: source.lines().collect(),
        in_test: test_mask(&clean_refs),
        clean_lines,
        in_test_dir: rel_path.contains("/tests/")
            || rel_path.contains("/benches/")
            || rel_path.starts_with("tests/")
            || rel_path.starts_with("examples/")
            || rel_path.contains("/examples/"),
    };
    let mut out = Vec::new();
    sl001(&ctx, &mut out);
    sl002(&ctx, &mut out);
    sl003(&ctx, &mut out);
    sl004(&ctx, &mut out);
    sl005(&ctx, &mut out);
    sl006(&ctx, &mut out);
    sl007(&ctx, &mut out);
    sl008(&ctx, &mut out);
    sl009(&ctx, &mut out);
    out
}

fn sl001(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !is_sim_crate(ctx.krate) {
        return;
    }
    for (i, line) in ctx.clean_lines.iter().enumerate() {
        for ident in ["Instant", "SystemTime", "UNIX_EPOCH"] {
            if find_ident(line, ident) {
                out.push(ctx.violation(
                    "SL001",
                    i,
                    format!(
                        "wall-clock `{ident}` in simulation crate; use snacc_sim::time::SimTime"
                    ),
                ));
                break;
            }
        }
    }
}

fn sl002(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if ctx.rel_path == "crates/snacc-sim/src/rng.rs" {
        return;
    }
    for (i, line) in ctx.clean_lines.iter().enumerate() {
        if find_ident(line, "thread_rng")
            || find_ident(line, "from_entropy")
            || line.contains("rand::random")
        {
            out.push(
                ctx.violation(
                    "SL002",
                    i,
                    "unseeded randomness; draw from a seeded snacc_sim::rng::SimRng instead"
                        .to_string(),
                ),
            );
        }
    }
}

fn sl003(ctx: &FileCtx, out: &mut Vec<Violation>) {
    const SYNC_IDENTS: &[&str] = &[
        "Mutex",
        "RwLock",
        "Condvar",
        "Barrier",
        "AtomicBool",
        "AtomicU8",
        "AtomicU16",
        "AtomicU32",
        "AtomicU64",
        "AtomicUsize",
        "AtomicI8",
        "AtomicI16",
        "AtomicI32",
        "AtomicI64",
        "AtomicIsize",
        "AtomicPtr",
    ];
    if !is_sim_crate(ctx.krate) {
        return;
    }
    for (i, line) in ctx.clean_lines.iter().enumerate() {
        if line.contains("std::thread") || line.contains("thread::spawn") {
            out.push(ctx.violation(
                "SL003",
                i,
                "OS threads in a single-threaded DES crate".to_string(),
            ));
        } else if let Some(ident) = SYNC_IDENTS.iter().find(|id| find_ident(line, id)) {
            out.push(ctx.violation(
                "SL003",
                i,
                format!("`{ident}` in a single-threaded DES crate; use Rc<RefCell<_>>"),
            ));
        }
    }
}

fn sl004(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !DECODE_MODULES.contains(&ctx.rel_path) {
        return;
    }
    const PANIC_TOKENS: &[&str] = &[
        ".unwrap(",
        ".expect(",
        "panic!",
        "unreachable!",
        "todo!",
        "unimplemented!",
        "debug_assert",
        "assert!",
        "assert_eq!",
        "assert_ne!",
    ];
    for (i, line) in ctx.clean_lines.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        if let Some(tok) = PANIC_TOKENS.iter().find(|t| line.contains(**t)) {
            out.push(ctx.violation(
                "SL004",
                i,
                format!("panic path `{tok}` in wire-decode module; return Result instead"),
            ));
        }
    }
}

fn sl005(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if ctx.krate == "snacc-sim" {
        return;
    }
    for (i, line) in ctx.clean_lines.iter().enumerate() {
        if ctx.in_test[i] || ctx.in_test_dir {
            continue;
        }
        let hit = if line.contains(".as_ps(") || line.contains("from_ps(") {
            Some("SimDuration ps escape hatch")
        } else if find_ident(line, "PS_PER_NS")
            || find_ident(line, "PS_PER_US")
            || find_ident(line, "PS_PER_MS")
            || find_ident(line, "PS_PER_SEC")
        {
            Some("raw ps unit constant")
        } else if has_ps_suffix_ident(line) {
            Some("`_ps`-suffixed raw picosecond identifier")
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(ctx.violation(
                "SL005",
                i,
                format!("{what} outside snacc-sim; keep time math in SimTime/SimDuration"),
            ));
        }
    }
}

fn sl006(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !is_sim_crate(ctx.krate) {
        return;
    }
    struct Guard {
        name: String,
        depth: i32,
        line: usize,
    }
    const SCHEDULE_TOKENS: &[&str] = &[
        "schedule_at(",
        "schedule_in(",
        "schedule_now(",
        ".schedule(",
    ];
    let mut depth: i32 = 0;
    let mut guards: Vec<Guard> = Vec::new();
    for (i, line) in ctx.clean_lines.iter().enumerate() {
        let trimmed = line.trim();
        // Flag schedule calls first: guards created on earlier lines are
        // still live here.
        if SCHEDULE_TOKENS.iter().any(|t| line.contains(t)) {
            if let Some(g) = guards.last() {
                out.push(ctx.violation(
                    "SL006",
                    i,
                    format!(
                        "RefCell guard `{}` (bound at line {}) is still live across this \
                         Engine::schedule call; end the borrow first",
                        g.name,
                        g.line + 1
                    ),
                ));
            }
        }
        // New guard binding: `let [mut] name = ....borrow[_mut]();`
        if (trimmed.ends_with(".borrow();") || trimmed.ends_with(".borrow_mut();"))
            && !trimmed.starts_with("if ")
            && !trimmed.starts_with("while ")
        {
            if let Some(rest) = trimmed.strip_prefix("let ") {
                let rest = rest.strip_prefix("mut ").unwrap_or(rest);
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() && !name.starts_with('_') {
                    guards.push(Guard {
                        name,
                        depth,
                        line: i,
                    });
                }
            }
        }
        // Explicit drop ends a guard.
        guards.retain(|g| !line.contains(&format!("drop({})", g.name)));
        // Apply brace deltas, then expire guards whose scope closed.
        for ch in line.chars() {
            match ch {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        guards.retain(|g| depth >= g.depth);
    }
}

/// True when `line` contains `token` not preceded by an identifier
/// character (so `println!` inside `eprintln!` does not double-match).
fn find_macro_token(line: &str, token: &str) -> bool {
    let b = line.as_bytes();
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut start = 0;
    while let Some(pos) = line[start..].find(token) {
        let at = start + pos;
        if at == 0 || !is_ident(b[at - 1]) {
            return true;
        }
        start = at + 1;
    }
    false
}

fn sl007(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !is_sim_crate(ctx.krate) {
        return;
    }
    const PRINT_TOKENS: &[&str] = &["println!", "eprintln!", "print!", "eprint!"];
    for (i, line) in ctx.clean_lines.iter().enumerate() {
        if ctx.in_test[i] || ctx.in_test_dir {
            continue;
        }
        if let Some(tok) = PRINT_TOKENS.iter().find(|t| find_macro_token(line, t)) {
            out.push(ctx.violation(
                "SL007",
                i,
                format!("`{tok}` in a model crate; emit a snacc-trace span/instant/metric instead"),
            ));
        }
    }
}

/// If `line` applies `op` to a receiver whose final path segment is a
/// payload-buffer name, return that name. The receiver must end exactly
/// in the buffer identifier (`beat.data`, `frame.payload`, bare
/// `payload`) — `frame_payload` or `metadata` do not match.
fn payload_receiver(line: &str, op: &str) -> Option<&'static str> {
    const BUFFER_NAMES: &[&str] = &["data", "payload"];
    let b = line.as_bytes();
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut start = 0;
    while let Some(pos) = line[start..].find(op) {
        let at = start + pos;
        for name in BUFFER_NAMES {
            if line[..at].ends_with(name) {
                let pre = at - name.len();
                if pre == 0 || !is_ident(b[pre - 1]) {
                    return Some(name);
                }
            }
        }
        start = at + 1;
    }
    None
}

fn sl008(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !is_sim_crate(ctx.krate) {
        return;
    }
    let strict = MEDIA_STRICT
        .iter()
        .any(|p| ctx.rel_path.starts_with(p) || ctx.rel_path == *p);
    for (i, line) in ctx.clean_lines.iter().enumerate() {
        if ctx.in_test[i] || ctx.in_test_dir {
            continue;
        }
        if strict {
            // Any materialisation in the functional-media layer.
            if let Some(op) = [".to_vec(", "copy_from_slice("]
                .into_iter()
                .find(|op| line.contains(op))
            {
                out.push(ctx.violation(
                    "SL008",
                    i,
                    format!(
                        "`{op})` materialises bytes in the functional-media layer; keep \
                         snacc_sim::Payload windows zero-copy through the segment store \
                         (triage deliberate boundaries in lint-allow.toml)"
                    ),
                ));
                continue;
            }
        }
        for op in [".to_vec(", ".clone("] {
            if let Some(recv) = payload_receiver(line, op) {
                out.push(ctx.violation(
                    "SL008",
                    i,
                    format!(
                        "`{recv}{op})` copies a payload buffer in a model crate; share a \
                         snacc_sim::Payload window (slice/split_at/concat) instead"
                    ),
                ));
                break;
            }
        }
    }
}

/// A place expression: a path or field chain (`x`, `self.a.0`,
/// `Enum::Variant`), `&`/`&mut` of one, or a tuple of places. A call, a
/// macro, an operator or a literal makes it something else.
fn is_place(expr: &str) -> bool {
    let b = expr.as_bytes();
    let call = b
        .windows(2)
        .any(|w| (w[0].is_ascii_alphanumeric() || b"_)!".contains(&w[0])) && w[1] == b'(');
    let mut words = expr
        .split(|c: char| "(),&".contains(c) || c.is_whitespace())
        .filter(|w| !w.is_empty() && *w != "mut")
        .peekable();
    !call
        && words.peek().is_some()
        && words.all(|w| {
            w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
                && w.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.:".contains(c))
        })
}

fn sl009(ctx: &FileCtx, out: &mut Vec<Violation>) {
    for (i, line) in ctx.clean_lines.iter().enumerate() {
        let Some(at) = line.find("let _ =") else {
            continue;
        };
        // The statement runs to its `;`, possibly over following lines.
        let mut expr = line[at + "let _ =".len()..].to_string();
        let mut j = i;
        while !expr.contains(';') && j + 1 < ctx.clean_lines.len() {
            j += 1;
            expr.push(' ');
            expr.push_str(&ctx.clean_lines[j]);
        }
        let Some(end) = expr.find(';') else {
            continue;
        };
        if is_place(&expr[..end]) {
            let why = "`let _ =` of a place uses nothing; it only hides dead code from the \
                       unused-code lints — delete the dead binding or field instead";
            out.push(ctx.violation("SL009", i, why.to_string()));
        }
    }
}

/// The function a `pub fn` item (optionally `const`, `async` or
/// `unsafe`) starting on sanitized `line` defines.
fn pub_fn_name(line: &str) -> Option<&str> {
    let mut rest = line.trim_start().strip_prefix("pub ")?.trim_start();
    for qualifier in ["const ", "async ", "unsafe "] {
        if let Some(r) = rest.strip_prefix(qualifier) {
            rest = r.trim_start();
        }
    }
    let rest = rest.strip_prefix("fn ")?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// SL010 over a whole tree. `files` holds `(workspace-relative path,
/// source)` for every file whose code may count as a use; the
/// definitions checked are the non-test `pub fn`s under `crates/*/src`.
/// A name counts wherever it appears as an identifier outside test code
/// (a `#[cfg(test)]` region or a file under a `tests/` directory), so
/// two functions that share a name keep each other alive, but a
/// function only tests call is dead.
pub(crate) fn scan_uncalled(files: &[(String, String)]) -> Vec<Violation> {
    let clean: Vec<String> = files.iter().map(|(_, src)| sanitize(src)).collect();
    let masks: Vec<Vec<bool>> = clean
        .iter()
        .map(|text| test_mask(&text.lines().collect::<Vec<_>>()))
        .collect();
    let mut uses: HashMap<&str, usize> = HashMap::new();
    for (((rel, _), text), in_test) in files.iter().zip(&clean).zip(&masks) {
        if rel.split('/').any(|dir| dir == "tests") {
            continue;
        }
        for (line, _) in text.lines().zip(in_test).filter(|(_, &t)| !t) {
            let words = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
            for word in
                words.filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
            {
                *uses.entry(word).or_default() += 1;
            }
        }
    }
    let mut out = Vec::new();
    for (((rel, src), text), in_test) in files.iter().zip(&clean).zip(&masks) {
        let in_crate_src = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split_once('/'))
            .is_some_and(|(_, r)| r.starts_with("src/"));
        if !in_crate_src {
            continue;
        }
        for ((i, line), raw) in text.lines().enumerate().zip(src.lines()) {
            let Some(name) = pub_fn_name(line) else {
                continue;
            };
            if !in_test[i] && uses.get(name) == Some(&1) {
                out.push(Violation {
                    rule: "SL010",
                    path: rel.clone(),
                    line: i + 1,
                    message: format!(
                        "`pub fn {name}` is named nowhere else in the workspace's code, so \
                         nothing calls it; delete it"
                    ),
                    snippet: raw.trim().to_string(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizer_masks_comments_and_strings() {
        let src = "let a = 1; // Instant here\nlet s = \"SystemTime\"; /* Mutex */ let b = 2;\n";
        let clean = sanitize(src);
        assert!(!clean.contains("Instant"));
        assert!(!clean.contains("SystemTime"));
        assert!(!clean.contains("Mutex"));
        assert!(clean.contains("let a = 1;"));
        assert!(clean.contains("let b = 2;"));
        assert_eq!(clean.lines().count(), src.lines().count());
    }

    #[test]
    fn sanitizer_handles_raw_strings_and_chars() {
        let src = "let r = r#\"panic!(\"x\")\"#; let c = '\\n'; let lt: &'static str = x;\n";
        let clean = sanitize(src);
        assert!(!clean.contains("panic!"));
        assert!(clean.contains("'static"));
    }

    #[test]
    fn ident_matching_respects_boundaries() {
        assert!(find_ident("use std::time::Instant;", "Instant"));
        assert!(!find_ident("/// Instantiate the shell", "Instant"));
        assert!(!find_ident("let my_instant_x = 1;", "Instant"));
    }

    #[test]
    fn ps_suffix_matching() {
        assert!(has_ps_suffix_ident("let dur_ps = 5;"));
        assert!(has_ps_suffix_ident("pub fn pause_duration_ps(q: u16)"));
        assert!(!has_ps_suffix_ident("let dur_psec = 5;"));
        assert!(!has_ps_suffix_ident("let duration = 5;"));
    }

    #[test]
    fn test_mask_covers_cfg_test_modules() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let clean = sanitize(src);
        let lines: Vec<&str> = clean.lines().collect();
        let mask = test_mask(&lines);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn sl001_fires_only_in_sim_crates() {
        let src = "use std::time::Instant;\n";
        let v = scan_source("crates/snacc-core/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "SL001");
        assert!(scan_source("crates/snacc-bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn sl006_guard_across_schedule() {
        let src = "\
fn f(&mut self, engine: &mut Engine) {
    let st = self.state.borrow_mut();
    engine.schedule_in(d, move |e| {});
}
";
        let v = scan_source("crates/snacc-core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "SL006");
        assert_eq!(v[0].line, 3);

        let ok = "\
fn f(&mut self, engine: &mut Engine) {
    {
        let st = self.state.borrow_mut();
    }
    engine.schedule_in(d, move |e| {});
    let st2 = self.state.borrow_mut();
    drop(st2);
    engine.schedule_now(move |e| {});
}
";
        assert!(scan_source("crates/snacc-core/src/x.rs", ok).is_empty());
    }

    #[test]
    fn sl004_scope_is_decode_modules_only() {
        let src = "fn d(b: &[u8]) { let x = b.first().unwrap(); }\n";
        assert_eq!(scan_source("crates/snacc-nvme/src/spec.rs", src).len(), 1);
        assert!(scan_source("crates/snacc-nvme/src/queue.rs", src).is_empty());
    }

    #[test]
    fn sl007_print_macros_in_model_crates() {
        let src = "fn f() { println!(\"x\"); eprint!(\"y\"); }\n";
        let v = scan_source("crates/snacc-core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "SL007");
        // Harness crates, tests dirs and examples are exempt.
        assert!(scan_source("crates/snacc-bench/src/x.rs", src).is_empty());
        assert!(scan_source("crates/snacc-core/tests/x.rs", src).is_empty());
        assert!(scan_source("examples/quickstart.rs", src).is_empty());
        // `#[cfg(test)]` regions are exempt too.
        let gated = "#[cfg(test)]\nmod tests {\n    fn t() { println!(\"x\"); }\n}\n";
        assert!(scan_source("crates/snacc-core/src/x.rs", gated).is_empty());
        // `eprintln!` must not double-report as `println!`.
        let e = scan_source(
            "crates/snacc-core/src/x.rs",
            "fn f() { eprintln!(\"x\"); }\n",
        );
        assert_eq!(e.len(), 1);
        assert!(e[0].message.contains("eprintln!"), "{e:?}");
    }

    #[test]
    fn sl008_payload_copies_in_model_crates() {
        let src = "fn f(b: StreamBeat) { let v = b.data.to_vec(); }\n";
        let v = scan_source("crates/snacc-core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "SL008");
        let src = "fn f(fr: &EthFrame) { let p = fr.payload.clone(); }\n";
        assert_eq!(scan_source("crates/snacc-net/src/x.rs", src).len(), 1);
        // Bench harness, tests dirs and non-buffer receivers are exempt.
        assert!(scan_source("crates/snacc-bench/src/x.rs", src).is_empty());
        assert!(scan_source("crates/snacc-net/tests/x.rs", src).is_empty());
        let ok = "fn f() { let a = frame_payload.clone(); let b = metadata.to_vec(); }\n";
        assert!(scan_source("crates/snacc-net/src/x.rs", ok).is_empty());
    }

    #[test]
    fn sl009_flags_let_underscore_of_places_only() {
        for src in [
            "fn f() { let _ = shared; }\n",
            "fn f() { let _ = &mut buf; }\n",
            "fn f() { let _ = (g5, PcieGen::Gen5); }\n",
            "fn f() {\n    let _ = (h.en, h.fabric,\n        &h.hostmem);\n}\n",
        ] {
            let v = scan_source("crates/snacc-core/src/x.rs", src);
            assert_eq!(v.len(), 1, "{src}: {v:?}");
            assert_eq!(v[0].rule, "SL009");
        }
        // Calls, macros, `?` and literals are uses; tests are not exempt.
        let ok = "fn f() {\n    let _ = f(x);\n    let _ = writeln!(o, \"x\");\n    \
                  let _ = fabric\n        .borrow_mut()\n        .write_u32(en, db, 1);\n    \
                  let _ = x?;\n    let _ = 5;\n}\n";
        assert!(scan_source("crates/snacc-core/src/x.rs", ok).is_empty());
        let gated = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = i; }\n}\n";
        assert_eq!(scan_source("crates/snacc-core/src/x.rs", gated).len(), 1);
    }

    #[test]
    fn sl010_flags_pub_fns_named_nowhere_else() {
        let file = |rel: &str, src: &str| (rel.to_string(), src.to_string());
        let files = [
            file(
                "crates/snacc-core/src/x.rs",
                "pub fn used() {}\npub fn unused() {}\npub const fn also_unused() {}\n\
                 pub(crate) fn scoped() {}\nfn private() {}\npub fn in_perfbench() {}\n\
                 pub fn only_in_strings() {}\n#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n",
            ),
            file(
                "examples/e.rs",
                "fn main() { used(); } // unused\nconst S: &str = \"only_in_strings\";\n",
            ),
            file("perfbench/src/main.rs", "fn main() { in_perfbench(); }\n"),
            // Test code is no use: an integration test, a test module.
            file("tests/t.rs", "fn t() { unused(); tested(); }\n"),
            file(
                "crates/snacc-net/src/y.rs",
                "pub fn tested() {}\n#[cfg(test)]\nmod tests {\n    fn t() { super::tested(); }\n}\n",
            ),
        ];
        let v = scan_uncalled(&files);
        let names: Vec<(&str, usize)> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(
            names,
            [("SL010", 2), ("SL010", 3), ("SL010", 7), ("SL010", 1)],
            "{v:?}"
        );
        // A `pub fn` outside `crates/*/src` is not checked.
        assert!(scan_uncalled(&[file("tests/t.rs", "pub fn lone() {}\n")]).is_empty());
    }

    #[test]
    fn sl005_skips_tests_and_sim_crate() {
        let src = "fn f() { let d_ps = t.as_ps(); }\n#[cfg(test)]\nmod tests {\n    fn t() { let x_ps = 1; }\n}\n";
        let v = scan_source("crates/snacc-net/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 1);
        assert!(scan_source("crates/snacc-sim/src/stats.rs", src).is_empty());
    }
}
