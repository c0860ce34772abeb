//! The item layer of the `tvp-analyzer` engine: a lightweight,
//! tolerant structural pass over the [`crate::lex`] token stream.
//!
//! It is deliberately not a full parser — it recovers exactly the
//! facts the lint rules need and nothing more:
//!
//! - which tokens sit inside `#[cfg(test)]` items (rules skip test
//!   code);
//! - every `struct` definition with its named fields (visibility,
//!   line) — the counter-export-coverage and storage-budget rules
//!   consume these;
//! - every `impl` block's self type and trait name (`StorageBudget`
//!   coverage);
//! - every `fn` with its name and body token range — the
//!   export-reachability closure walks these.
//!
//! The pass is total: unknown constructs are skipped token-by-token,
//! so a file the layer half-understands still lints (conservatively)
//! rather than erroring.

use crate::lex::{Tok, TokKind};

/// Per-token region flags.
#[derive(Clone, Copy, Debug, Default)]
pub struct Flags {
    /// Inside an item gated on `#[cfg(test)]` (or any `cfg` mentioning
    /// `test`).
    pub in_test: bool,
}

/// A named struct field.
#[derive(Debug)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// 1-based line of the field name.
    pub line: usize,
    /// Declared `pub` (any visibility qualifier counts).
    pub is_pub: bool,
}

/// A struct definition.
#[derive(Debug)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: usize,
    /// Declared plain `pub`: `pub(crate)`, `pub(super)` and `pub(in …)`
    /// do not count.
    pub is_pub: bool,
    /// Defined inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Named fields (empty for tuple/unit structs).
    pub fields: Vec<FieldDef>,
}

/// An impl block header.
#[derive(Debug)]
pub struct ImplDef {
    /// The self type's head identifier (`Foo` in `impl Tr for Foo<T>`).
    pub self_ty: String,
    /// The implemented trait's last path segment, if a trait impl.
    pub trait_name: Option<String>,
}

/// A function definition.
#[derive(Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Body as a half-open range of *code-token* indices (into
    /// [`FileItems::code`]); `(0, 0)` for bodyless declarations.
    pub body: (usize, usize),
}

/// Everything the item layer recovered from one file.
#[derive(Debug)]
pub struct FileItems {
    /// Indices of non-comment tokens, in order — the "code stream"
    /// rules iterate over.
    pub code: Vec<usize>,
    /// Region flags, indexed by *token* index (comments stay default).
    pub flags: Vec<Flags>,
    /// Struct definitions.
    pub structs: Vec<StructDef>,
    /// Impl blocks.
    pub impls: Vec<ImplDef>,
    /// Function definitions.
    pub fns: Vec<FnDef>,
}

/// Region context threaded through the recursive descent; also the
/// accumulated `#[cfg(...)]` facts for the next item.
#[derive(Clone, Copy, Default)]
struct Ctx {
    test: bool,
}

impl Ctx {
    fn or(self, p: Ctx) -> Ctx {
        Ctx { test: self.test || p.test }
    }
}

struct Parser<'s> {
    src: &'s str,
    toks: &'s [Tok],
    code: Vec<usize>,
    flags: Vec<Flags>,
    i: usize, // index into `code`
    structs: Vec<StructDef>,
    impls: Vec<ImplDef>,
    fns: Vec<FnDef>,
}

/// Parses the token stream of one file into its item map.
#[must_use]
pub fn parse(src: &str, toks: &[Tok]) -> FileItems {
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let mut p = Parser {
        src,
        toks,
        code,
        flags: vec![Flags::default(); toks.len()],
        i: 0,
        structs: Vec::new(),
        impls: Vec::new(),
        fns: Vec::new(),
    };
    p.items(Ctx::default());
    FileItems { code: p.code, flags: p.flags, structs: p.structs, impls: p.impls, fns: p.fns }
}

impl Parser<'_> {
    fn t(&self, ci: usize) -> &str {
        match self.code.get(ci) {
            Some(&ti) => &self.src[self.toks[ti].lo..self.toks[ti].hi],
            None => "",
        }
    }

    fn kind(&self, ci: usize) -> Option<TokKind> {
        self.code.get(ci).map(|&ti| self.toks[ti].kind)
    }

    fn cur(&self) -> &str {
        self.t(self.i)
    }

    fn at(&self, s: &str) -> bool {
        self.cur() == s
    }

    fn eof(&self) -> bool {
        self.i >= self.code.len()
    }

    fn line(&self, ci: usize) -> usize {
        self.code.get(ci).map_or(0, |&ti| self.toks[ti].line)
    }

    fn bump(&mut self, ctx: Ctx) {
        if let Some(&ti) = self.code.get(self.i) {
            self.flags[ti].in_test |= ctx.test;
        }
        self.i += 1;
    }

    /// Consumes a balanced `{}`/`()`/`[]` group, cursor on the opener.
    fn skip_group(&mut self, ctx: Ctx) {
        let (open, close) = match self.cur() {
            "{" => ("{", "}"),
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            _ => {
                self.bump(ctx);
                return;
            }
        };
        let mut depth = 0usize;
        while !self.eof() {
            if self.at(open) {
                depth += 1;
            } else if self.at(close) {
                depth -= 1;
                if depth == 0 {
                    self.bump(ctx);
                    return;
                }
            }
            self.bump(ctx);
        }
    }

    /// Consumes a balanced generic-argument group, cursor on the `<`.
    /// `>>`/`<<` count double (the lexer folds shifts into one token).
    fn skip_angles(&mut self, ctx: Ctx) {
        let mut depth = 0i64;
        while !self.eof() {
            match self.cur() {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                // An array type's `;` is inside its brackets.
                "[" | "(" => {
                    self.skip_group(ctx);
                    continue;
                }
                // Tolerate a header we misread rather than swallowing
                // the whole file.
                "{" | ";" => return,
                _ => {}
            }
            self.bump(ctx);
            if depth <= 0 {
                return;
            }
        }
    }

    /// Consumes up to and including the next `;` at group depth 0
    /// (balanced through `{}`/`()`/`[]`, e.g. const initializers).
    fn skip_to_semi(&mut self, ctx: Ctx) {
        while !self.eof() {
            match self.cur() {
                ";" => {
                    self.bump(ctx);
                    return;
                }
                "{" | "(" | "[" => self.skip_group(ctx),
                _ => self.bump(ctx),
            }
        }
    }

    /// Parses one `#[...]` / `#![...]` attribute (cursor on the `#`)
    /// and folds any `cfg` facts into `pending`.
    fn attr(&mut self, ctx: Ctx, pending: &mut Ctx) {
        self.bump(ctx); // '#'
        if self.at("!") {
            self.bump(ctx);
        }
        if !self.at("[") {
            return;
        }
        let start = self.i;
        self.skip_group(ctx); // the [...] group
        let end = self.i;
        // `#[cfg(...)]` (incl. `all`/`any` nests): an ident `test`
        // anywhere marks a test region. `cfg_attr` is a different ident
        // and is ignored.
        let has_cfg = (start..end).any(|ci| self.t(ci) == "cfg");
        if !has_cfg {
            return;
        }
        for ci in start..end {
            if self.t(ci) == "test" && self.kind(ci) == Some(TokKind::Ident) {
                pending.test = true;
            }
        }
    }

    /// Parses a brace-delimited item sequence. The cursor stands after
    /// the opening `{` (or at file start); returns with the cursor on
    /// the matching `}` (or EOF).
    fn items(&mut self, ctx: Ctx) {
        while !self.eof() && !self.at("}") {
            let mut pending = Ctx::default();
            while self.at("#") {
                self.attr(ctx, &mut pending);
            }
            let ictx = ctx.or(pending);
            // Visibility.
            if self.at("pub") {
                self.bump(ictx);
                if self.at("(") {
                    self.skip_group(ictx);
                }
            }
            // Fn qualifiers.
            while matches!(self.cur(), "unsafe" | "async" | "default") {
                self.bump(ictx);
            }
            if self.at("extern") {
                self.bump(ictx);
                if self.kind(self.i) == Some(TokKind::Str) {
                    self.bump(ictx);
                }
                if self.at("{") {
                    // Foreign module: skip wholesale.
                    self.skip_group(ictx);
                    continue;
                }
            }
            if self.at("const") && self.t(self.i + 1) == "fn" {
                self.bump(ictx);
            }
            match self.cur() {
                "mod" => {
                    self.bump(ictx);
                    self.bump(ictx); // name
                    if self.at("{") {
                        self.bump(ictx);
                        self.items(ictx);
                        self.bump(ictx); // '}'
                    } else {
                        self.skip_to_semi(ictx);
                    }
                }
                "struct" => self.parse_struct(ictx),
                "enum" | "union" | "trait" => {
                    let is_trait = self.at("trait");
                    self.bump(ictx);
                    self.bump(ictx); // name
                    while !self.eof() && !self.at("{") && !self.at(";") {
                        if self.at("<") {
                            self.skip_angles(ictx);
                        } else {
                            self.bump(ictx);
                        }
                    }
                    if self.at("{") {
                        if is_trait {
                            self.bump(ictx);
                            self.items(ictx);
                            self.bump(ictx);
                        } else {
                            self.skip_group(ictx);
                        }
                    } else {
                        self.bump(ictx);
                    }
                }
                "impl" => self.parse_impl(ictx),
                "fn" => self.parse_fn(ictx),
                "type" | "use" | "static" | "const" => self.skip_to_semi(ictx),
                "macro_rules" => {
                    self.bump(ictx); // macro_rules
                    self.bump(ictx); // '!'
                    self.bump(ictx); // name
                    self.skip_group(ictx);
                }
                "{" => self.skip_group(ictx),
                _ => self.bump(ictx),
            }
        }
    }

    fn parse_struct(&mut self, ctx: Ctx) {
        let kw_line = self.line(self.i);
        self.bump(ctx); // struct
        let name = self.cur().to_owned();
        self.bump(ctx);
        if self.at("<") {
            self.skip_angles(ctx);
        }
        // Where clause / nothing, up to the body form.
        while !self.eof() && !self.at("{") && !self.at("(") && !self.at(";") {
            self.bump(ctx);
        }
        let mut fields = Vec::new();
        match self.cur() {
            "(" => {
                self.skip_group(ctx); // tuple struct
                if self.at(";") {
                    self.bump(ctx);
                }
            }
            ";" => self.bump(ctx), // unit struct
            "{" => {
                self.bump(ctx);
                self.parse_fields(ctx, &mut fields);
                self.bump(ctx); // '}'
            }
            _ => {}
        }
        // `is_pub` is re-derived by the caller side: the `pub` token
        // was consumed before dispatch, so thread it via a lookback.
        let is_pub = self.lookback_pub(kw_line);
        self.structs.push(StructDef { name, line: kw_line, is_pub, in_test: ctx.test, fields });
    }

    /// Was the item whose keyword sits on `kw_line` declared plain
    /// `pub`, without a `(crate)`-style restriction? The visibility
    /// tokens were consumed generically before dispatch, so look back
    /// over recent tokens on the same or previous line.
    fn lookback_pub(&self, kw_line: usize) -> bool {
        (0..self.i)
            .rev()
            .take_while(|&ci| self.line(ci) + 1 >= kw_line)
            .any(|ci| self.t(ci) == "pub" && self.t(ci + 1) != "(" && self.line(ci) == kw_line)
    }

    fn parse_fields(&mut self, ctx: Ctx, out: &mut Vec<FieldDef>) {
        while !self.eof() && !self.at("}") {
            let mut pending = Ctx::default();
            while self.at("#") {
                self.attr(ctx, &mut pending);
            }
            let mut is_pub = false;
            if self.at("pub") {
                is_pub = true;
                self.bump(ctx);
                if self.at("(") {
                    self.skip_group(ctx);
                }
            }
            if self.kind(self.i) == Some(TokKind::Ident) && self.t(self.i + 1) == ":" {
                let name = self.cur().to_owned();
                let line = self.line(self.i);
                if !(pending.test || ctx.test) {
                    out.push(FieldDef { name, line, is_pub });
                }
                self.bump(ctx); // name
                self.bump(ctx); // ':'
                                // Type: up to the comma at depth 0.
                let mut angle = 0i64;
                while !self.eof() {
                    match self.cur() {
                        "," if angle <= 0 => {
                            self.bump(ctx);
                            break;
                        }
                        "}" if angle <= 0 => break,
                        "<" => angle += 1,
                        "<<" => angle += 2,
                        ">" => angle -= 1,
                        ">>" => angle -= 2,
                        "(" | "[" | "{" => {
                            self.skip_group(ctx);
                            continue;
                        }
                        _ => {}
                    }
                    self.bump(ctx);
                }
            } else {
                self.bump(ctx);
            }
        }
    }

    fn parse_impl(&mut self, ctx: Ctx) {
        self.bump(ctx); // impl
        if self.at("<") {
            self.skip_angles(ctx);
        }
        // Header: everything up to the body brace; split on `for`.
        let start = self.i;
        let mut angle = 0i64;
        let mut for_at = None;
        let mut where_at = None;
        while !self.eof() && !self.at("{") && !self.at(";") {
            match self.cur() {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "for" if angle <= 0 && for_at.is_none() => for_at = Some(self.i),
                "where" if angle <= 0 && where_at.is_none() => where_at = Some(self.i),
                _ => {}
            }
            self.bump(ctx);
        }
        let end = where_at.unwrap_or(self.i);
        let (trait_name, ty_start) = match for_at {
            Some(f) => (self.last_head_ident(start, f), f + 1),
            None => (None, start),
        };
        let self_ty = self.last_head_ident(ty_start, end).unwrap_or_default();
        if self.at("{") {
            self.bump(ctx);
            self.items(ctx);
            self.bump(ctx); // '}'
        } else {
            self.bump(ctx);
        }
        self.impls.push(ImplDef { self_ty, trait_name });
    }

    /// The head identifier of a type/trait path in `[start, end)`: the
    /// last ident at angle depth 0 (`Foo` in `a::b::Foo<T>`; `Vec` in
    /// `Vec<Foo>`; skips `&`, `mut`, lifetimes, `dyn`).
    fn last_head_ident(&self, start: usize, end: usize) -> Option<String> {
        let mut angle = 0i64;
        let mut last = None;
        for ci in start..end {
            match self.t(ci) {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "mut" | "dyn" | "ref" => {}
                t if angle <= 0
                    && self.kind(ci) == Some(TokKind::Ident)
                    && t.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_') =>
                {
                    last = Some(t.to_owned());
                }
                _ => {}
            }
        }
        last
    }

    fn parse_fn(&mut self, ctx: Ctx) {
        self.bump(ctx); // fn
        let name = self.cur().to_owned();
        self.bump(ctx);
        if self.at("<") {
            self.skip_angles(ctx);
        }
        if self.at("(") {
            self.skip_group(ctx); // params
        }
        // Return type / where clause, up to the body or `;`. An array
        // type's `;` sits inside its brackets.
        while !self.eof() && !self.at("{") && !self.at(";") {
            if self.at("<") {
                self.skip_angles(ctx);
            } else if self.at("[") || self.at("(") {
                self.skip_group(ctx);
            } else {
                self.bump(ctx);
            }
        }
        let mut body = (0, 0);
        if self.at("{") {
            let bstart = self.i + 1;
            self.skip_group(ctx);
            body = (bstart, self.i.saturating_sub(1));
        } else {
            self.bump(ctx); // ';'
        }
        self.fns.push(FnDef { name, body });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn parse_src(src: &str) -> FileItems {
        parse(src, Box::leak(lex(src).into_boxed_slice()))
    }

    /// Code-token texts inside/outside test regions.
    fn split_test_regions(src: &str) -> (Vec<String>, Vec<String>) {
        let toks = lex(src);
        let items = parse(src, &toks);
        let mut test = Vec::new();
        let mut live = Vec::new();
        for &ti in &items.code {
            let text = src[toks[ti].lo..toks[ti].hi].to_owned();
            if items.flags[ti].in_test {
                test.push(text);
            } else {
                live.push(text);
            }
        }
        (test, live)
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let src =
            "fn hot() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn also() {}";
        let (test, live) = split_test_regions(src);
        assert!(test.iter().any(|t| t == "unwrap"));
        assert!(!live.iter().any(|t| t == "unwrap"));
        assert!(live.iter().any(|t| t == "also"));
    }

    #[test]
    fn cfg_test_single_item_is_marked_whole() {
        // The old line scanner skipped only the attribute line of a
        // `#[cfg(test)]` fn; the item layer covers the entire item.
        let src = "#[cfg(test)]\nfn helper() {\n  let v = vec![1];\n}\nfn live() { real(); }";
        let (test, live) = split_test_regions(src);
        assert!(test.iter().any(|t| t == "vec"));
        assert!(!live.iter().any(|t| t == "vec"));
        assert!(live.iter().any(|t| t == "real"));
    }

    #[test]
    fn struct_fields_are_recovered() {
        let src = "pub struct FooStats {\n  /// doc\n  pub hits: u64,\n  pub map: BTreeMap<u64, u64>,\n  internal: bool,\n}";
        let items = parse_src(src);
        assert_eq!(items.structs.len(), 1);
        let s = &items.structs[0];
        assert_eq!(s.name, "FooStats");
        assert!(s.is_pub);
        let names: Vec<(&str, bool)> =
            s.fields.iter().map(|f| (f.name.as_str(), f.is_pub)).collect();
        assert_eq!(names, [("hits", true), ("map", true), ("internal", false)]);
        assert_eq!(s.fields[1].line, 4, "generic comma does not split the field");
    }

    #[test]
    fn tuple_and_unit_structs_have_no_fields() {
        let items = parse_src("pub struct A(u64, u64);\nstruct B;\npub struct C { pub x: u8 }");
        assert_eq!(items.structs.len(), 3);
        assert!(items.structs[0].fields.is_empty());
        assert!(items.structs[1].fields.is_empty());
        assert!(!items.structs[1].is_pub);
        assert_eq!(items.structs[2].fields.len(), 1);
    }

    #[test]
    fn impl_blocks_resolve_trait_and_self_type() {
        let src = "impl tvp_verif::StorageBudget for Hierarchy {\n fn storage_bits(&self) -> u64 { 0 }\n}\nimpl Btb { fn lookup(&self) {} }\nimpl<T> Display for Wrapper<T> where T: X {}";
        let items = parse_src(src);
        assert_eq!(items.impls.len(), 3);
        assert_eq!(items.impls[0].trait_name.as_deref(), Some("StorageBudget"));
        assert_eq!(items.impls[0].self_ty, "Hierarchy");
        assert_eq!(items.impls[1].trait_name, None);
        assert_eq!(items.impls[1].self_ty, "Btb");
        assert_eq!(items.impls[2].trait_name.as_deref(), Some("Display"));
        assert_eq!(items.impls[2].self_ty, "Wrapper");
    }

    #[test]
    fn fn_bodies_are_recorded() {
        let src = "impl Core {\n pub fn export_registry(&self) { reg.counter(self.stats.cycles); }\n}\nfn free() { helper(); }";
        let items = parse_src(src);
        assert_eq!(items.fns.len(), 2);
        let export = &items.fns[0];
        assert_eq!(export.name, "export_registry");
        let body: Vec<&str> = (export.body.0..export.body.1)
            .map(|ci| {
                let ti = items.code[ci];
                let t = crate::lex::lex(src);
                Box::leak(src[t[ti].lo..t[ti].hi].to_owned().into_boxed_str()) as &str
            })
            .collect();
        assert!(body.contains(&"cycles"));
        assert!(!body.contains(&"helper"), "body range stops at the closing brace");
    }

    #[test]
    fn array_return_types_keep_their_fn_body() {
        let src = concat!(
            "fn table(&mut self) -> [(&'static str, &mut u64); 2] { [(\"a\", a), (\"b\", b)] }\n",
            "fn wrapped() -> Option<[u8; 4]> { None }\nfn after() {}",
        );
        let items = parse_src(src);
        let names: Vec<&str> = items.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["table", "wrapped", "after"]);
        assert!(items.fns.iter().all(|f| f.body != (0, 0)), "every fn keeps its body");
    }

    #[test]
    fn generics_with_shift_tokens_do_not_derail() {
        let src = "pub struct M { pub m: Vec<Vec<u64>>, pub n: u8 }\nfn after() {}";
        let items = parse_src(src);
        assert_eq!(items.structs[0].fields.len(), 2);
        assert_eq!(items.fns.len(), 1, "parser recovers after `>>` in a field type");
    }

    #[test]
    fn const_items_with_braced_initializers_are_skipped() {
        let src = "const X: [u8; 2] = [1, 2];\npub const Y: u64 = { 3 + 4 };\nfn live() {}";
        let items = parse_src(src);
        assert_eq!(items.fns.len(), 1);
        assert_eq!(items.fns[0].name, "live");
    }
}
