//! Docs cite only documents that exist: every `*.md` path named in the
//! sources (`src/`, `crates/`, `tests/`, `examples/`) or in README.md and
//! ARCHITECTURE.md must resolve, from the repository root or from the
//! citing file's directory.

use std::path::{Path, PathBuf};

/// Collects the `.rs`, `.toml` and `.md` files under `dir`.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                sources(&path, out);
            }
        } else if path
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "md")
        {
            out.push(path);
        }
    }
}

/// Every `*.md` path token in `text`: a run of path characters ending in
/// `.md` that no further word character continues.
fn cited_md(text: &str) -> Vec<&str> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | '/');
    let mut found = Vec::new();
    for (at, _) in text.match_indices(".md") {
        let end = at + 3;
        if text[end..]
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            continue;
        }
        let start = text[..at]
            .char_indices()
            .rev()
            .take_while(|&(_, c)| is_path(c))
            .last()
            .map_or(at, |(i, _)| i);
        if start < at {
            found.push(&text[start..end]);
        }
    }
    found
}

#[test]
fn cited_markdown_files_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("README.md"), root.join("ARCHITECTURE.md")];
    for dir in ["src", "crates", "tests", "examples"] {
        sources(&root.join(dir), &mut files);
    }
    let mut dangling = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source");
        for cited in cited_md(&text) {
            let here = file.parent().expect("file has a directory");
            if !root.join(cited).is_file() && !here.join(cited).is_file() {
                dangling.push(format!("{} cites {cited}", file.display()));
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "dangling doc citations:\n{}",
        dangling.join("\n")
    );
}

#[test]
fn citation_scanner_finds_paths() {
    // Split literals, so this file cites nothing itself.
    let text = concat!(
        "see `NOWHERE",
        ".md` §4 and docs/GUIDE",
        ".md, not x",
        ".mdx"
    );
    assert_eq!(
        cited_md(text),
        [concat!("NOWHERE", ".md"), concat!("docs/GUIDE", ".md")]
    );
}
