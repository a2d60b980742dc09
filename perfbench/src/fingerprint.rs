//! The host fingerprint printed with every result, so that a history
//! of results compares like with like.

use std::path::Path;

use fcdpm_runner::spec::fnv1a;
use serde_json::Value;

use crate::report::{object, text};

/// `nproc`, `rustc -V`, kernel release, git commit (when run from a git
/// checkout), a digest of the sources the benchmark was built from, and
/// the filesystem type under `run_dir` (on tmpfs an fsync, and so a
/// checkpoint, costs almost nothing).
pub fn fingerprint(run_dir: &Path) -> Value {
    object([
        ("nproc", Value::UInt(crate::nproc() as u64)),
        ("rustc", text(rustc_version())),
        ("kernel", text(read_trimmed("/proc/sys/kernel/osrelease"))),
        ("git_commit", text(git_commit())),
        ("source_digest", text(Some(source_digest()))),
        ("run_dir_fs", text(filesystem_type(run_dir))),
    ])
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_owned())
}

fn rustc_version() -> Option<String> {
    let out = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// The commit `.git/HEAD` names in the current directory, read directly
/// so that no parent directory's repository is consulted.
fn git_commit() -> Option<String> {
    let head = read_trimmed(".git/HEAD")?;
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head);
    };
    if let Some(commit) = read_trimmed(&format!(".git/{reference}")) {
        return Some(commit);
    }
    let packed = read_trimmed(".git/packed-refs")?;
    packed.lines().find_map(|line| {
        let (commit, name) = line.split_once(' ')?;
        (name == reference).then(|| commit.to_owned())
    })
}

/// FNV-1a over the path and bytes of every file the benchmark binary is
/// built from, in sorted path order.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "vendor",
        "perfbench/src",
    ] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut buffer = Vec::new();
    for file in &files {
        buffer.extend_from_slice(file.to_string_lossy().as_bytes());
        buffer.push(0);
        if let Ok(bytes) = std::fs::read(file) {
            buffer.extend_from_slice(&fnv1a(&bytes).to_le_bytes());
        }
    }
    format!("{:016x}", fnv1a(&buffer))
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_owned());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            collect_files(&entry.path(), out);
        }
    }
}

/// The filesystem type of the mount holding `path`, from the longest
/// mount point in `/proc/self/mountinfo` that prefixes it.
fn filesystem_type(path: &Path) -> Option<String> {
    let path = std::fs::canonicalize(path).ok()?;
    let mountinfo = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    mountinfo
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let mount_point = *fields.get(4)?;
            let dash = fields.iter().position(|f| *f == "-")?;
            let fs_type = *fields.get(dash + 1)?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs_type.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs_type)| fs_type)
}
