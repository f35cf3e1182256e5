//! The host and build stamp every result carries. Results whose host
//! stamps differ are never compared (see `compare`).

use std::path::{Path, PathBuf};

/// What a result was measured on and with.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    pub nproc: usize,
    pub simd_tier: &'static str,
    pub pool_threads: usize,
    /// A digest of the sources the benchmark builds against
    /// (`src-<hex>`), after the git commit when run from a git checkout
    /// (`<commit>+src-<hex>`), so uncommitted changes never pass as the
    /// commit they started from.
    pub commit: String,
    pub seed: u64,
    /// Every `IMDIFF_*` environment variable, sorted.
    pub env: Vec<(String, String)>,
}

impl Stamp {
    pub fn collect(seed: u64) -> Stamp {
        let mut env: Vec<(String, String)> = std::env::vars()
            .filter(|(k, _)| k.starts_with("IMDIFF_"))
            .collect();
        env.sort();
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd_tier: imdiff_nn::simd::tier().name(),
            pool_threads: imdiff_nn::pool::max_threads(),
            commit: commit(Path::new(".")),
            seed,
            env,
        }
    }

    /// The part of the stamp two result sets must share to be compared:
    /// everything except the commit and the seed.
    pub fn host_key(&self) -> String {
        let env: Vec<String> = self.env.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!(
            "nproc={};tier={};threads={};env={}",
            self.nproc,
            self.simd_tier,
            self.pool_threads,
            if env.is_empty() {
                "-".into()
            } else {
                env.join(",")
            }
        )
    }
}

/// What the checkout rooted at `root` holds: its source digest, after
/// the commit read from `.git` (without running git) when there is one.
fn commit(root: &Path) -> String {
    let digest = format!("src-{:016x}", source_digest(root));
    match git_head(&root.join(".git")) {
        Some(head) => format!("{head}+{digest}"),
        None => digest,
    }
}

fn git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a over the paths and bytes of every Rust source and manifest
/// under `crates/` and `src/`, in sorted path order.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "src"] {
        collect(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(f) {
            eat(&bytes);
        }
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs")
            || p.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_key_ignores_commit_and_seed() {
        let a = Stamp {
            nproc: 2,
            simd_tier: "avx2fma",
            pool_threads: 2,
            commit: "abc".into(),
            seed: 1,
            env: vec![("IMDIFF_THREADS".into(), "1".into())],
        };
        let b = Stamp {
            commit: "def".into(),
            seed: 9,
            ..a.clone()
        };
        assert_eq!(a.host_key(), b.host_key());
        assert_eq!(
            a.host_key(),
            "nproc=2;tier=avx2fma;threads=2;env=IMDIFF_THREADS=1"
        );
        let c = Stamp {
            env: vec![],
            ..a.clone()
        };
        assert_ne!(a.host_key(), c.host_key());
    }

    #[test]
    fn digest_changes_with_sources() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("test-digest-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("crates")).unwrap();
        std::fs::write(dir.join("crates/a.rs"), "fn a() {}").unwrap();
        let d1 = source_digest(&dir);
        assert_eq!(d1, source_digest(&dir));
        std::fs::write(dir.join("crates/a.rs"), "fn b() {}").unwrap();
        assert_ne!(d1, source_digest(&dir));
        let plain = commit(&dir);
        assert_eq!(plain, format!("src-{:016x}", source_digest(&dir)));
        // A git checkout carries its commit and, after it, the digest of
        // what is actually on disk.
        std::fs::create_dir_all(dir.join(".git")).unwrap();
        std::fs::write(dir.join(".git/HEAD"), "0123abc\n").unwrap();
        assert_eq!(commit(&dir), format!("0123abc+{plain}"));
        std::fs::write(dir.join("crates/a.rs"), "fn c() {}").unwrap();
        assert_ne!(commit(&dir), format!("0123abc+{plain}"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
