//! The one JSON writer behind every versioned artifact: `tcni-trace/1`
//! ([`ObsReport::to_json`](crate::ObsReport::to_json)), `tcni-load/1` and
//! `tcni-coll/1` (in `tcni-workload`).
//!
//! Hand-rolled because the workspace is dependency-free. The writer owns
//! the layout the three schemas share, so each serializer is a plain list
//! of fields:
//!
//! * the document is an object with one field per line, indented two
//!   spaces, and ends in `}` and a newline;
//! * every nested object is written inline: `{"key": value, ...}`;
//! * a [`records`](Obj::records) array puts each record on its own line,
//!   one level deeper than the field holding it, and closes on a line of
//!   its own at that field's level; an empty one is `[]`;
//! * numbers are unsigned integers, and an absent value is `null`.
//!
//! Keys and string values are written verbatim: they are identifiers and
//! never need escaping. The format is stable; consumers should check the
//! `schema` field first.

use std::fmt::{Display, Write as _};

/// The unsigned integer types an artifact field holds.
pub trait Num: Display {}
impl Num for u64 {}
impl Num for u32 {}
impl Num for usize {}

/// An object being written: the document itself, or an object nested in it.
pub struct Obj<'a> {
    out: &'a mut String,
    /// Nesting level of the line this object's fields sit on.
    depth: usize,
    /// Whether each field starts a line of its own (the document's fields).
    lines: bool,
    empty: bool,
}

/// Writes a document whose first field is `"schema": schema` and whose
/// remaining fields `body` writes.
pub fn document(schema: &str, body: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut out = String::from("{");
    let mut doc = Obj {
        out: &mut out,
        depth: 1,
        lines: true,
        empty: true,
    };
    doc.str("schema", schema);
    body(&mut doc);
    out.push_str("\n}\n");
    out
}

fn inline(out: &mut String, depth: usize, body: impl FnOnce(&mut Obj<'_>)) {
    out.push('{');
    body(&mut Obj {
        out,
        depth,
        lines: false,
        empty: true,
    });
    out.push('}');
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
}

impl Obj<'_> {
    /// Writes the separator, `"key": ` and `v`.
    fn field(&mut self, key: &str, v: impl Display) -> &mut Self {
        if !self.empty {
            self.out.push(',');
        }
        if self.lines {
            newline(self.out, self.depth);
        } else if !self.empty {
            self.out.push(' ');
        }
        self.empty = false;
        let _ = write!(self.out, "\"{key}\": {v}");
        self
    }

    /// An integer field.
    pub fn num(&mut self, key: &str, v: impl Num) -> &mut Self {
        self.field(key, v)
    }

    /// An integer field that is `null` when absent.
    pub fn opt(&mut self, key: &str, v: Option<impl Num>) -> &mut Self {
        match v {
            Some(v) => self.field(key, v),
            None => self.field(key, "null"),
        }
    }

    /// A string field.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.field(key, format_args!("\"{v}\""))
    }

    /// A `true`/`false` field.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.field(key, v)
    }

    /// An inline array of integers: `[a, b, c]`.
    pub fn nums<T: Num>(&mut self, key: &str, vs: impl IntoIterator<Item = T>) -> &mut Self {
        self.field(key, '[');
        for (i, v) in vs.into_iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(self.out, "{sep}{v}");
        }
        self.out.push(']');
        self
    }

    /// An inline object whose fields `body` writes.
    pub fn obj(&mut self, key: &str, body: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        self.field(key, "");
        inline(self.out, self.depth, body);
        self
    }

    /// An array with one inline record per line, each written by `record`.
    pub fn records<I: IntoIterator>(
        &mut self,
        key: &str,
        items: I,
        mut record: impl FnMut(&mut Obj<'_>, I::Item),
    ) -> &mut Self {
        self.field(key, '[');
        let mut any = false;
        for item in items {
            if any {
                self.out.push(',');
            }
            newline(self.out, self.depth + 1);
            inline(self.out, self.depth + 1, |o| record(o, item));
            any = true;
        }
        if any {
            newline(self.out, self.depth);
        }
        self.out.push(']');
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_record_array_is_a_bare_pair_of_brackets() {
        let json = document("t/1", |d| {
            d.records("xs", std::iter::empty::<u64>(), |o, x| {
                o.num("x", x);
            });
        });
        assert_eq!(json, "{\n  \"schema\": \"t/1\",\n  \"xs\": []\n}\n");
    }

    #[test]
    fn records_sit_one_per_line_and_nest_one_level_deeper() {
        let json = document("t/1", |d| {
            d.records("outer", [1u32, 2], |o, i| {
                o.num("i", i).records("inner", [i * 10], |o, j| {
                    o.num("j", j);
                });
            });
        });
        assert_eq!(
            json,
            "{\n  \"schema\": \"t/1\",\n  \"outer\": [\
             \n    {\"i\": 1, \"inner\": [\n      {\"j\": 10}\n    ]},\
             \n    {\"i\": 2, \"inner\": [\n      {\"j\": 20}\n    ]}\
             \n  ]\n}\n"
        );
    }

    #[test]
    fn scalars_write_null_true_and_false() {
        let json = document("t/1", |d| {
            d.obj("v", |o| {
                o.opt("none", None::<u64>)
                    .opt("some", Some(7usize))
                    .bool("yes", true)
                    .bool("no", false)
                    .str("s", "mesh");
            });
        });
        assert_eq!(
            json,
            "{\n  \"schema\": \"t/1\",\n  \"v\": {\"none\": null, \"some\": 7, \
             \"yes\": true, \"no\": false, \"s\": \"mesh\"}\n}\n"
        );
    }

    #[test]
    fn number_arrays_are_inline() {
        let json = document("t/1", |d| {
            d.nums("a", [0u32, 50, 1000])
                .nums("e", Vec::<u64>::new())
                .obj("h", |o| {
                    o.nums("lo", [1usize, 2]);
                });
        });
        assert_eq!(
            json,
            "{\n  \"schema\": \"t/1\",\n  \"a\": [0, 50, 1000],\n  \"e\": [],\
             \n  \"h\": {\"lo\": [1, 2]}\n}\n"
        );
    }
}
