//! Parser properties over the real workspace and generated item soups.
//!
//! Three guarantees the analyzer leans on (DESIGN.md §13):
//!
//! 1. every workspace `.rs` file parses with **zero** lexer/parser errors —
//!    the call graph is only as complete as the item trees under it;
//! 2. item spans are **well-nested** (children inside parents, siblings
//!    disjoint and ordered), so span-based scoping never misattributes a
//!    token to the wrong function;
//! 3. pretty-printing a tree and re-parsing it is **span-stable** — the
//!    printer/parser pair agrees on item structure, so span-based scoping
//!    is stable across formatting churn.
//!
//! Generated cases use the fixed-seed harness from `silcfm_types::check`,
//! same style as the rest of the workspace's property tests.

use silcfm_lint::lexer::lex;
use silcfm_lint::parse::{check_nesting, parse, pretty, span_stable_eq};
use silcfm_types::check::forall_cases;
use silcfm_types::rng::{Rng, Xoshiro256StarStar};

/// Workspace root: compile-time constant, independent of invocation dir.
fn root() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

#[test]
fn workspace_parses_clean_with_nested_spans() {
    let files = silcfm_lint::all_workspace_rust_files(&root()).expect("walk workspace");
    assert!(
        files.len() > 50,
        "workspace walk looks wrong: only {} files",
        files.len()
    );
    for file in files {
        let source = std::fs::read_to_string(&file).expect("read source");
        let lexed = lex(&source);
        let tree = parse(&lexed);
        assert!(
            tree.errors.is_empty(),
            "{}: parse errors: {:?}",
            file.display(),
            tree.errors
        );
        check_nesting(&tree.items, None)
            .unwrap_or_else(|e| panic!("{}: bad nesting: {e}", file.display()));
    }
}

#[test]
fn workspace_pretty_roundtrip_is_span_stable() {
    let files = silcfm_lint::all_workspace_rust_files(&root()).expect("walk workspace");
    for file in files {
        let source = std::fs::read_to_string(&file).expect("read source");
        let lexed = lex(&source);
        let tree = parse(&lexed);
        let printed = pretty(&tree, &lexed.tokens);
        let relexed = lex(&printed);
        let retree = parse(&relexed);
        assert!(
            retree.errors.is_empty(),
            "{}: reparse errors: {:?}",
            file.display(),
            retree.errors
        );
        assert!(
            span_stable_eq(&tree.items, &retree.items),
            "{}: pretty roundtrip changed the item tree",
            file.display()
        );
    }
}

// ---- generated item soups --------------------------------------------------

/// Emits one random item into `out`; depth caps recursion for mod bodies.
fn gen_item(rng: &mut Xoshiro256StarStar, out: &mut String, depth: u32, tag: u64) {
    match rng.next_u64() % if depth > 0 { 8 } else { 6 } {
        0 => out.push_str(&format!(
            "fn f{tag}(a: u64, v: &mut Vec<u8>) -> u64 {{ a + v.len() as u64 }}\n"
        )),
        1 => out.push_str(&format!(
            "struct S{tag} {{ field: Box<dyn Trait{tag}>, n: Option<u32> }}\n"
        )),
        2 => out.push_str(&format!(
            "impl S{tag} {{ fn get(&self, i: usize) -> u32 {{ self.n.unwrap_or(i as u32) }} }}\n"
        )),
        3 => out.push_str(&format!(
            "use alpha{tag}::{{beta::Gamma as G{tag}, delta::*}};\n"
        )),
        4 => out.push_str(&format!("const C{tag}: &str = \"lit-{tag}\";\n")),
        5 => out.push_str(&format!(
            "trait Trait{tag} {{ fn req(&self) -> u8; fn opt(&self) -> u8 {{ 0 }} }}\n"
        )),
        6 => {
            out.push_str(&format!("mod m{tag} {{\n"));
            let n = rng.next_u64() % 3;
            for k in 0..n {
                gen_item(rng, out, depth - 1, tag * 10 + k);
            }
            out.push_str("}\n");
        }
        _ => out.push_str(&format!(
            "impl Trait{tag} for S{tag} {{ fn req(&self) -> u8 {{ {} }} }}\n",
            rng.next_u64() % 256
        )),
    }
}

#[test]
fn generated_trees_nest_and_roundtrip() {
    forall_cases("parser roundtrip on generated items", 128, |rng| {
        let mut src = String::new();
        let items = 1 + rng.next_u64() % 8;
        for i in 0..items {
            gen_item(rng, &mut src, 2, i);
        }
        let lexed = lex(&src);
        let tree = parse(&lexed);
        assert!(
            tree.errors.is_empty(),
            "errors {:?} in:\n{src}",
            tree.errors
        );
        check_nesting(&tree.items, None).unwrap_or_else(|e| panic!("{e} in:\n{src}"));
        let printed = pretty(&tree, &lexed.tokens);
        let relexed = lex(&printed);
        let retree = parse(&relexed);
        assert!(
            span_stable_eq(&tree.items, &retree.items),
            "roundtrip drift for:\n{src}\nprinted:\n{printed}"
        );
    });
}
