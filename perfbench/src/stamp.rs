//! Machine and build fingerprint stamped on every result.

use ferrum::json::Json;

/// Where and with what a result was produced.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model name.
    pub cpu_model: String,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub git_commit: String,
}

impl Stamp {
    /// Reads the stamp of this process and the checkout at the current
    /// directory.
    pub fn collect() -> Stamp {
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".to_owned()),
            rustc: env!("PERFBENCH_RUSTC").to_owned(),
            git_commit: git_commit().unwrap_or_else(|| "unknown".to_owned()),
        }
    }

    /// The stamp as a JSON object, with the thread count the workload's
    /// campaigns actually ran on.
    pub fn to_json(&self, threads: usize) -> Json {
        Json::obj(vec![
            ("nproc", Json::Int(self.nproc as i64)),
            ("cpu_model", Json::Str(self.cpu_model.clone())),
            ("rustc", Json::Str(self.rustc.clone())),
            ("git_commit", Json::Str(self.git_commit.clone())),
            ("campaign_threads", Json::Int(threads as i64)),
        ])
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_owned())
}

/// Resolves `.git/HEAD` by reading the ref files; no `git` process.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{name}")) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_owned()))
}
