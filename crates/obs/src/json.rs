//! The one JSON writer behind every exported document. A document is a
//! block object ending in `\n`, written into one `String` trimmed to its
//! length. Every string value is escaped; keys are code literals,
//! written unscanned and checked in debug builds. A digested document
//! reserves a fixed-width `"digest"` line after its first member and,
//! once complete, fills it in place with the FNV-1a of every other
//! byte: the digest of the document without the line. The members are
//! `#[inline(always)]`: out of line, the metrics snapshot every computed
//! served job renders took about 15 % longer.

use std::fmt::{self, Write as _};

use crate::trace::Fnv1a;

/// How a container lays out its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, two spaces in from the parent; an empty
    /// container still breaks its line (`[\n  ]`).
    Block,
    /// Every member on the container's line: `{"a": 1, "b": [2, 3]}`.
    Inline,
}

/// The digest line, with the separator that ends the member before it.
const DIGEST_LINE: &str = ",\n  \"digest\": \"0x0000000000000000\"";

/// A digested document's slot until its first member is written.
const PENDING: usize = usize::MAX;

/// Writes one document into a `String` of `capacity`: `body` fills its
/// top-level object, with the digest line after the first member when
/// `digested`.
pub fn document(capacity: usize, digested: bool, body: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::with_capacity(capacity);
    out.push('{');
    let slot = digested.then_some(PENDING);
    let mut doc = Object {
        out: &mut out,
        layout: Layout::Block,
        indent: 2,
        first: true,
        slot,
    };
    body(&mut doc);
    doc.reserve_slot();
    let slot = doc.slot.filter(|&at| at != PENDING);
    out.push_str("\n}\n");
    if let Some(at) = slot {
        let mut hash = Fnv1a::new();
        hash.write(&out.as_bytes()[..at]);
        hash.write(&out.as_bytes()[at + DIGEST_LINE.len()..]);
        let digest = hash.finish();
        let hex: [u8; 16] =
            std::array::from_fn(|i| b"0123456789abcdef"[(digest >> (60 - 4 * i)) as usize & 0xf]);
        let digits = at + DIGEST_LINE.len() - 17;
        out.replace_range(digits..digits + 16, std::str::from_utf8(&hex).expect("hex"));
    }
    out.shrink_to_fit();
    out
}

/// A JSON object being written: each method appends one member.
#[derive(Debug)]
pub struct Object<'a> {
    out: &'a mut String,
    layout: Layout,
    /// Spaces before each member of a block.
    indent: usize,
    first: bool,
    /// Where a digested document's digest line starts.
    slot: Option<usize>,
}

impl Object<'_> {
    /// Writes the separator before the next member.
    #[inline(always)]
    fn next(&mut self) {
        match self.layout {
            Layout::Inline if self.first => {}
            Layout::Inline => self.out.push_str(", "),
            Layout::Block => self.out.push_str(line_break(self.first, self.indent)),
        }
        self.first = false;
    }

    /// Writes a container one level in, which `body` fills.
    #[inline(always)]
    fn nest(
        &mut self,
        [open, close]: [char; 2],
        layout: Layout,
        body: impl FnOnce(&mut Object<'_>),
    ) {
        self.out.push(open);
        let indent = self.indent + 2;
        body(&mut Object {
            out: self.out,
            layout,
            indent,
            first: true,
            slot: None,
        });
        if layout == Layout::Block {
            self.out.push_str(line_break(true, self.indent));
        }
        self.out.push(close);
    }

    /// Reserves a digested document's digest line after its first member.
    #[inline(always)]
    fn reserve_slot(&mut self) {
        if self.slot == Some(PENDING) && !self.first {
            self.slot = Some(self.out.len());
            self.out.push_str(DIGEST_LINE);
        }
    }

    /// Starts a member: the separator, `"key` and `then` (`": ` and
    /// whatever opens the value).
    #[inline(always)]
    fn key(&mut self, key: &'static str, then: &'static str) {
        debug_assert!(!key.bytes().any(needs_escape), "key {key:?} needs escaping");
        self.reserve_slot();
        self.next();
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str(then);
    }

    /// `"key": 42`.
    #[inline(always)]
    pub fn u64(&mut self, key: &'static str, value: u64) {
        self.key(key, "\": ");
        push_u64(self.out, value);
    }

    /// `"key": "value"`, escaped.
    #[inline(always)]
    pub fn str(&mut self, key: &'static str, value: &str) {
        self.key(key, "\": \"");
        push_escaped(self.out, value);
        self.out.push('"');
    }

    /// `"key": "0x…"`: a digest as 16 hex digits.
    pub fn hex(&mut self, key: &'static str, value: u64) {
        self.token(key, format_args!("\"0x{value:016x}\""));
    }

    /// `"key": value`, written through `Display` as it is: `true`,
    /// `null`, a formatted float.
    pub fn token(&mut self, key: &'static str, value: impl fmt::Display) {
        self.key(key, "\": ");
        let _ = write!(self.out, "{value}");
    }

    /// `"key": [1, 2, 3]`.
    #[inline]
    pub fn u64s(&mut self, key: &'static str, values: impl IntoIterator<Item = u64>) {
        self.key(key, "\": [");
        for (i, value) in values.into_iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            push_u64(self.out, value);
        }
        self.out.push(']');
    }

    /// `"key": {…}`, which `body` fills.
    pub fn object(
        &mut self,
        key: &'static str,
        layout: Layout,
        body: impl FnOnce(&mut Object<'_>),
    ) {
        self.key(key, "\": ");
        self.nest(['{', '}'], layout, body);
    }

    /// `"key": […]`, an array of objects that `body` fills.
    pub fn array(
        &mut self,
        key: &'static str,
        layout: Layout,
        body: impl FnOnce(&mut Array<'_, '_>),
    ) {
        self.key(key, "\": ");
        self.nest(['[', ']'], layout, |array| body(&mut Array(array)));
    }
}

/// A JSON array of objects being written.
#[derive(Debug)]
pub struct Array<'a, 'b>(&'a mut Object<'b>);

impl Array<'_, '_> {
    /// Appends an object that `body` fills.
    #[inline(always)]
    pub fn object(&mut self, layout: Layout, body: impl FnOnce(&mut Object<'_>)) {
        self.0.next();
        self.0.nest(['{', '}'], layout, body);
    }
}

/// What starts a block member: `,\n` (`\n` for the first) and `indent`
/// spaces.
#[inline(always)]
fn line_break(first: bool, indent: usize) -> &'static str {
    &",\n                                "[usize::from(first)..2 + indent]
}

/// Appends `value` in decimal.
#[inline(always)]
fn push_u64(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// Appends `s` escaped for a JSON string: `"` and `\` take a backslash
/// and control characters become `\u00XX`. Every byte it escapes is
/// ASCII, so the text between two of them is copied whole.
#[inline(always)]
fn push_escaped(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(at) = rest.bytes().position(needs_escape) {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            control => {
                let _ = write!(out, "\\u{control:04x}");
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let mut out = String::from("x");
        push_escaped(&mut out, "a\"b\\c\nd\u{1f}é");
        assert_eq!(out, "xa\\\"b\\\\c\\u000ad\\u001fé");
    }

    #[test]
    fn layouts_nest_and_empty_blocks_break_their_line() {
        let rows = document(0, false, |doc| {
            doc.str("schema", "demo/v1");
            doc.array("rows", Layout::Block, |rows| {
                rows.object(Layout::Inline, |row| {
                    row.u64("a", 1);
                    row.u64s("b", [2, 3]);
                });
            });
        });
        assert_eq!(
            rows,
            "{\n  \"schema\": \"demo/v1\",\n  \"rows\": [\n    {\"a\": 1, \"b\": [2, 3]}\n  ]\n}\n"
        );
        let doc = document(0, false, |doc| {
            doc.token("flag", true);
            doc.object("inline", Layout::Inline, |o| {
                o.hex("digest", 0xab);
                o.u64s("none", []);
            });
            doc.array("empty", Layout::Block, |_| {});
            doc.array("blocks", Layout::Block, |a| {
                a.object(Layout::Block, |o| o.token("x", format_args!("{:.4}", 0.5)));
                a.object(Layout::Block, |o| o.token("y", "null"));
            });
        });
        assert_eq!(
            doc,
            "{\n  \"flag\": true,\n  \"inline\": {\"digest\": \"0x00000000000000ab\", \"none\": []},\n  \"empty\": [\n  ],\n  \"blocks\": [\n    {\n      \"x\": 0.5000\n    },\n    {\n      \"y\": null\n    }\n  ]\n}\n"
        );
        assert_eq!(doc.capacity(), doc.len());
    }

    #[test]
    fn the_digest_line_holds_the_digest_of_the_document_without_it() {
        let body = |doc: &mut Object<'_>| {
            doc.str("schema", "demo/v1");
            doc.u64("n", 7);
        };
        let plain = document(0, false, body);
        let digested = document(0, true, body);
        let line = format!(
            "  \"digest\": \"0x{:016x}\",\n",
            crate::trace::fnv1a(plain.as_bytes())
        );
        assert_eq!(
            digested,
            plain.replacen("  \"n\"", &format!("{line}  \"n\""), 1)
        );
        // A one-member document still gets its line, after that member,
        // and an empty one none.
        assert_eq!(document(0, true, |_| {}), "{\n}\n");
        let one = |digested| document(0, digested, |doc| doc.str("schema", "demo/v1"));
        assert_eq!(
            one(true),
            format!(
                "{{\n  \"schema\": \"demo/v1\",\n  \"digest\": \"0x{:016x}\"\n}}\n",
                crate::trace::fnv1a(one(false).as_bytes())
            )
        );
    }
}
