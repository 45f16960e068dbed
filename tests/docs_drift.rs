//! Docs drift gate (std-only). README.md, ARCHITECTURE.md and the verify
//! skill name files, cargo targets, cargo features and
//! `module::symbol`s; each must still exist, so a rename or deletion that strands a reference fails
//! here instead of misleading the next reader.

use std::collections::HashSet;
use std::fs;
use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"];
const DIRS: [&str; 7] = ["crates/", "tests/", "ci/", "docs/", "examples/", "bench/", "shims/"];
const EXTS: [&str; 6] = [".rs", ".json", ".sh", ".md", ".toml", ".yml"];
/// Build output, run records and VCS state: not repository content.
const SKIP: [&str; 4] = ["target", ".git", ".bench_build", "out"];

/// Repo-relative paths of every file below `dir`.
fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).expect("readable directory").flatten() {
        let path = entry.path();
        if !path.is_dir() {
            out.push(path.strip_prefix(root).expect("below root").to_string_lossy().into_owned());
        } else if !SKIP.iter().any(|skip| entry.file_name() == *skip) {
            walk(root, &path, out);
        }
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Feature names declared by the `[features]` table of one manifest.
fn declared_features(manifest: &str) -> impl Iterator<Item = &str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != "[features]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter_map(|line| line.split_once('=').map(|(name, _)| name.trim()))
        .filter(|name| !name.starts_with('#'))
}

fn idents(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).filter(|s| !s.is_empty())
}

/// Does `reference` — a file or directory, optionally with one `*` —
/// name `file`? It may start at any path-component boundary, so
/// `mpsm-core/src/merge.rs` and a bare `merge.rs` resolve like
/// `crates/mpsm-core/src/merge.rs`.
fn names(reference: &str, file: &str) -> bool {
    let reference = reference.trim_end_matches('/');
    let starts = (0..file.len()).filter(|&i| i == 0 || file.as_bytes()[i - 1] == b'/');
    match reference.split_once('*') {
        Some((head, tail)) => starts.map(|i| &file[i..]).any(|rest| {
            rest.len() >= head.len() + tail.len()
                && rest.starts_with(head)
                && rest.ends_with(tail)
                && !rest[head.len()..rest.len() - tail.len()].contains('/')
        }),
        None => starts.map(|i| &file[i..]).any(|rest| {
            rest.strip_prefix(reference).is_some_and(|r| r.is_empty() || r.starts_with('/'))
        }),
    }
}

#[test]
fn docs_name_only_paths_targets_and_symbols_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    walk(root, root, &mut files);
    let read =
        |rel: &str| fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
    // What a `module::symbol` must resolve into: the shipped sources.
    let shipped = |f: &&String| {
        f.ends_with(".rs")
            && (f.starts_with("src/") || f.starts_with("crates/") && f.contains("/src/"))
    };
    let sources: Vec<String> = files.iter().filter(shipped).map(|f| read(f)).collect();
    let symbols: HashSet<&str> = sources.iter().flat_map(|s| idents(s)).collect();
    let manifests: Vec<String> =
        files.iter().filter(|f| f.ends_with("Cargo.toml")).map(|f| read(f)).collect();
    let features: HashSet<&str> = manifests.iter().flat_map(|m| declared_features(m)).collect();

    let mut stale = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        let mut flag = |what: String| stale.push(format!("{doc}: {what}"));

        // Cargo targets, in prose and in code fences alike.
        let words: Vec<&str> =
            text.split(|c: char| c.is_whitespace() || c == '`').filter(|w| !w.is_empty()).collect();
        for pair in words.windows(2) {
            if pair[0] == "--features" {
                let is_name = |c: char| c.is_ascii_alphanumeric() || "_-/".contains(c);
                for name in pair[1].split(',').map(|n| n.trim_matches(|c| !is_name(c))) {
                    let feature = name.rsplit('/').next().unwrap_or(name);
                    if !features.contains(feature) {
                        flag(format!("`--features {name}`: no manifest declares `{feature}`"));
                    }
                }
                continue;
            }
            let dir = match pair[0] {
                "--bin" => "src/bin",
                "--example" => "examples",
                "--test" => "tests",
                _ => continue,
            };
            let name = pair[1].trim_end_matches(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
            let source = format!("{dir}/{name}.rs");
            if is_ident(name) && !files.iter().any(|f| names(&source, f)) {
                flag(format!("`{} {name}` has no {source}", pair[0]));
            }
        }

        // Backticked spans of the prose (fences hold commands and
        // diagrams, not references).
        let mut fenced = false;
        let prose: Vec<&str> = text
            .lines()
            .filter(|line| {
                let fence = line.trim_start().starts_with("```");
                fenced ^= fence;
                !(fenced || fence)
            })
            .collect();
        for span in prose.join("\n").split('`').skip(1).step_by(2) {
            for word in span.split_whitespace() {
                // `path`, or `path.rs::item` (the item must be in that file).
                let (path, item) =
                    word.split_once("::").map_or((word, None), |(p, i)| (p, Some(i)));
                if path.chars().all(|c| c.is_ascii_alphanumeric() || "_-./*".contains(c))
                    && (DIRS.iter().any(|d| path.starts_with(d))
                        || EXTS.iter().any(|e| path.ends_with(e)))
                {
                    let hits: Vec<&String> = files.iter().filter(|f| names(path, f)).collect();
                    if hits.is_empty() {
                        flag(format!("`{word}`: no such path"));
                    } else if let Some(item) = item.and_then(|i| idents(i).last()) {
                        if !hits.iter().any(|f| idents(&read(f)).any(|id| id == item)) {
                            flag(format!("`{word}`: `{item}` is not in that file"));
                        }
                    }
                    continue;
                }
                // `module::symbol`, and each name of `module::{A, B}`.
                for token in word.split(|c: char| !(c.is_ascii_alphanumeric() || "_:".contains(c)))
                {
                    let segments: Vec<&str> = token.trim_matches(':').split("::").collect();
                    let last = segments[segments.len() - 1];
                    if segments.len() >= 2
                        && segments.iter().all(|s| is_ident(s))
                        && segments[0] != "std"
                        && !symbols.contains(last)
                    {
                        flag(format!("`{token}`: no `{last}` in the sources"));
                    }
                }
            }
            if let Some((_, group)) = span.split_once("::{") {
                for name in idents(group.split('}').next().unwrap_or("")) {
                    if !symbols.contains(name) {
                        flag(format!("`{span}`: no `{name}` in the sources"));
                    }
                }
            }
        }
    }
    assert!(stale.is_empty(), "stale references in the docs:\n{}", stale.join("\n"));
}
