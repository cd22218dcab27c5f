//! The host fingerprint recorded with every result: timings only
//! compare between runs on the same CPU count and model, built by the
//! same compiler from the same source.

use std::path::Path;
use std::process::Command;

/// Where and with what a result was measured.
pub struct Fingerprint {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// The git commit when run in a git checkout; otherwise a digest
    /// of the runtime's sources (`src:<hex>`), which identifies the
    /// same code in an exported tree.
    pub commit: String,
    /// The workload seed.
    pub seed: u64,
    /// Worker threads the parallel backends ran with.
    pub workers: usize,
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Fingerprint {
    /// Take the fingerprint of this host, reading the repository at
    /// `root` (the directory holding `crates/`).
    pub fn take(root: &Path, seed: u64, workers: usize) -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = command_line("rustc", &["--version"], root).unwrap_or_else(|| "unknown".into());
        // Ask git only when `root` is itself a checkout: in an exported
        // tree git would search the directories above it.
        let commit = root
            .join(".git")
            .exists()
            .then(|| command_line("git", &["rev-parse", "HEAD"], root))
            .flatten()
            .unwrap_or_else(|| format!("src:{:016x}", source_digest(&root.join("crates"))));
        Fingerprint {
            nproc: nproc(),
            cpu_model,
            rustc,
            commit,
            seed,
            workers,
        }
    }

    /// One JSON object with every field.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}, \"seed\": {}, \"workers\": {}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.rustc),
            json_str(&self.commit),
            self.seed,
            self.workers
        )
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let line = String::from_utf8_lossy(&out.stdout)
        .lines()
        .next()?
        .trim()
        .to_string();
    (!line.is_empty()).then_some(line)
}

/// FNV-1a over every `.rs` and `Cargo.toml` file under `dir`, visited
/// in sorted path order so the digest is the same on every host.
fn source_digest(dir: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in rd.flatten() {
            let p = entry.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|e| e == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(dir)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
