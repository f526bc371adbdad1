//! NDJSON serialization for the campaign flight recorder.
//!
//! `ferrum_faultsim::flight` defines the event model and keeps it
//! dependency-free; this module is the IO layer on top: every
//! [`FlightEvent`] becomes one compact JSON object on one line
//! (NDJSON), per docs/events-schema.md.  One line per event is what
//! makes the stream a *write-ahead journal*: a campaign killed
//! mid-run leaves a file whose every complete line still parses, and
//! [`parse_events`] simply drops a torn final line — exactly the
//! truncation semantics `JournalSnapshot::from_events` expects.
//!
//! [`NdjsonSink`] is the production sink: it writes and flushes each
//! event as it happens (a journal that sits in a buffer while the
//! process dies protects nothing).  [`event_to_json`] /
//! [`event_from_json`] are the conversion pair; round-tripping an
//! event stream is lossless (`tests/flight_recorder.rs`).

use std::io::Write as _;
use std::sync::Mutex;

use ferrum_cpu::fault::FaultSpec;
use ferrum_faultsim::campaign::Outcome;
use ferrum_faultsim::flight::{
    CampaignEvent, CampaignFingerprint, FlightEvent, FlightSink, JournalSnapshot, OutcomeTallies,
    ProgressSnapshot, ShardRecord, Stage,
};
use ferrum_faultsim::EngineKind;

use crate::json::{id_to_json, Json, ToJson};

fn tallies_to_json(t: &OutcomeTallies) -> Json {
    Json::obj(vec![
        ("sdc", t.sdc.to_json()),
        ("detected", t.detected.to_json()),
        ("crash", t.crash.to_json()),
        ("timeout", t.timeout.to_json()),
        ("benign", t.benign.to_json()),
    ])
}

fn get_id(v: &Json, key: &str) -> Option<u64> {
    match v.get(key)? {
        Json::Str(s) => s.parse().ok(),
        other => other.as_u64(),
    }
}

fn fingerprint_to_json(f: &CampaignFingerprint) -> Json {
    Json::obj(vec![
        ("workload", Json::Str(f.workload.clone())),
        ("technique", Json::Str(f.technique.clone())),
        ("executor", Json::Str(f.executor.clone())),
        ("engine", Json::Str(f.engine.label().to_owned())),
        ("samples", f.samples.to_json()),
        ("seed", id_to_json(f.seed)),
        ("sites", f.sites.to_json()),
        ("golden_dyn_insts", f.golden_dyn_insts.to_json()),
        ("program_hash", id_to_json(f.program_hash)),
    ])
}

fn records_to_json(records: &[(FaultSpec, Outcome)]) -> Json {
    Json::Arr(
        records
            .iter()
            .map(|(f, o)| {
                Json::obj(vec![
                    ("dyn_index", f.dyn_index.to_json()),
                    ("raw_bit", Json::Int(i64::from(f.raw_bit))),
                    ("outcome", o.to_json()),
                ])
            })
            .collect(),
    )
}

fn shard_to_json(s: &ShardRecord) -> Json {
    Json::obj(vec![
        ("shard", s.shard.to_json()),
        ("start", s.start.to_json()),
        ("len", s.len.to_json()),
        ("seed", id_to_json(s.seed)),
        ("program_hash", id_to_json(s.program_hash)),
        ("tallies", tallies_to_json(&s.tallies)),
        ("records", records_to_json(&s.records)),
    ])
}

fn snapshot_to_json(p: &ProgressSnapshot) -> Json {
    Json::obj(vec![
        ("done", p.done.to_json()),
        ("total", p.total.to_json()),
        ("tallies", tallies_to_json(&p.tallies)),
        (
            "sdc_ci",
            Json::Arr(vec![p.sdc_ci.0.to_json(), p.sdc_ci.1.to_json()]),
        ),
        ("rate", p.rate.to_json()),
        (
            "worker_rates",
            Json::Arr(p.worker_rates.iter().map(|r| r.to_json()).collect()),
        ),
        ("eta_nanos", p.eta_nanos.map_or(Json::Null, |e| e.to_json())),
        ("pruned", p.pruned.to_json()),
        ("reused", p.reused.to_json()),
        ("elapsed_nanos", p.elapsed_nanos.to_json()),
    ])
}

/// One event as one JSON object: `{seq, nanos, type, ...payload}`.
pub fn event_to_json(ev: &FlightEvent) -> Json {
    let mut fields = vec![("seq", ev.seq.to_json()), ("nanos", ev.nanos.to_json())];
    match &ev.event {
        CampaignEvent::Started {
            fingerprint,
            total,
            shard_size,
            shards,
        } => {
            fields.push(("type", Json::Str("started".into())));
            fields.push(("fingerprint", fingerprint_to_json(fingerprint)));
            fields.push(("total", total.to_json()));
            fields.push(("shard_size", shard_size.to_json()));
            fields.push(("shards", shards.to_json()));
        }
        CampaignEvent::ShardScheduled { shard, start, len } => {
            fields.push(("type", Json::Str("shard_scheduled".into())));
            fields.push(("shard", shard.to_json()));
            fields.push(("start", start.to_json()));
            fields.push(("len", len.to_json()));
        }
        CampaignEvent::Heartbeat {
            worker,
            injections,
            steps,
        } => {
            fields.push(("type", Json::Str("heartbeat".into())));
            fields.push(("worker", worker.to_json()));
            fields.push(("injections", injections.to_json()));
            fields.push(("steps", steps.to_json()));
        }
        CampaignEvent::Progress(p) => {
            fields.push(("type", Json::Str("progress".into())));
            fields.push(("progress", snapshot_to_json(p)));
        }
        CampaignEvent::ShardCompleted(s) => {
            fields.push(("type", Json::Str("shard_completed".into())));
            fields.push(("record", shard_to_json(s)));
        }
        CampaignEvent::FunctionShardCompleted {
            name,
            hash,
            sites,
            draws,
            reused,
        } => {
            fields.push(("type", Json::Str("function_shard".into())));
            fields.push(("name", Json::Str(name.clone())));
            fields.push(("hash", id_to_json(*hash)));
            fields.push(("sites", sites.to_json()));
            fields.push(("draws", draws.to_json()));
            fields.push(("reused", Json::Bool(*reused)));
        }
        CampaignEvent::StageTiming {
            worker,
            stage,
            nanos,
            count,
        } => {
            fields.push(("type", Json::Str("stage_timing".into())));
            fields.push(("worker", worker.to_json()));
            fields.push(("stage", Json::Str(stage.label().to_owned())));
            fields.push(("stage_nanos", nanos.to_json()));
            fields.push(("count", count.to_json()));
        }
        CampaignEvent::Finished {
            tallies,
            wall_nanos,
            injections_per_sec,
            pruned,
            reused,
        } => {
            fields.push(("type", Json::Str("finished".into())));
            fields.push(("tallies", tallies_to_json(tallies)));
            fields.push(("wall_nanos", wall_nanos.to_json()));
            fields.push(("injections_per_sec", injections_per_sec.to_json()));
            fields.push(("pruned", pruned.to_json()));
            fields.push(("reused", reused.to_json()));
        }
    }
    Json::obj(fields)
}

fn get_usize(v: &Json, key: &str) -> Option<usize> {
    v.get(key)?.as_u64().map(|u| u as usize)
}

fn get_u64(v: &Json, key: &str) -> Option<u64> {
    v.get(key)?.as_u64()
}

fn tallies_from_json(v: &Json) -> Option<OutcomeTallies> {
    Some(OutcomeTallies {
        sdc: get_usize(v, "sdc")?,
        detected: get_usize(v, "detected")?,
        crash: get_usize(v, "crash")?,
        timeout: get_usize(v, "timeout")?,
        benign: get_usize(v, "benign")?,
    })
}

fn fingerprint_from_json(v: &Json) -> Option<CampaignFingerprint> {
    Some(CampaignFingerprint {
        workload: v.get("workload")?.as_str()?.to_owned(),
        technique: v.get("technique")?.as_str()?.to_owned(),
        executor: v.get("executor")?.as_str()?.to_owned(),
        engine: EngineKind::parse(v.get("engine")?.as_str()?)?,
        samples: get_usize(v, "samples")?,
        seed: get_id(v, "seed")?,
        sites: get_usize(v, "sites")?,
        golden_dyn_insts: get_u64(v, "golden_dyn_insts")?,
        program_hash: get_id(v, "program_hash")?,
    })
}

fn records_from_json(v: &Json) -> Option<Vec<(FaultSpec, Outcome)>> {
    v.as_array()?
        .iter()
        .map(|r| {
            let fault = FaultSpec::new(
                get_u64(r, "dyn_index")?,
                u16::try_from(get_u64(r, "raw_bit")?).ok()?,
            );
            let outcome = Outcome::parse(r.get("outcome")?.as_str()?)?;
            Some((fault, outcome))
        })
        .collect()
}

fn shard_from_json(v: &Json) -> Option<ShardRecord> {
    Some(ShardRecord {
        shard: get_usize(v, "shard")?,
        start: get_usize(v, "start")?,
        len: get_usize(v, "len")?,
        seed: get_id(v, "seed")?,
        program_hash: get_id(v, "program_hash")?,
        tallies: tallies_from_json(v.get("tallies")?)?,
        records: records_from_json(v.get("records")?)?,
    })
}

fn snapshot_from_json(v: &Json) -> Option<ProgressSnapshot> {
    let ci = v.get("sdc_ci")?;
    Some(ProgressSnapshot {
        done: get_usize(v, "done")?,
        total: get_usize(v, "total")?,
        tallies: tallies_from_json(v.get("tallies")?)?,
        sdc_ci: (ci.idx(0)?.as_f64()?, ci.idx(1)?.as_f64()?),
        rate: v.get("rate")?.as_f64()?,
        worker_rates: v
            .get("worker_rates")?
            .as_array()?
            .iter()
            .map(Json::as_f64)
            .collect::<Option<Vec<f64>>>()?,
        eta_nanos: match v.get("eta_nanos")? {
            Json::Null => None,
            e => Some(e.as_u64()?),
        },
        pruned: get_usize(v, "pruned")?,
        reused: get_usize(v, "reused")?,
        elapsed_nanos: get_u64(v, "elapsed_nanos")?,
    })
}

/// Parses one event object back; `None` when the shape does not match
/// docs/events-schema.md.
pub fn event_from_json(v: &Json) -> Option<FlightEvent> {
    let seq = get_u64(v, "seq")?;
    let nanos = get_u64(v, "nanos")?;
    let event = match v.get("type")?.as_str()? {
        "started" => CampaignEvent::Started {
            fingerprint: fingerprint_from_json(v.get("fingerprint")?)?,
            total: get_usize(v, "total")?,
            shard_size: get_usize(v, "shard_size")?,
            shards: get_usize(v, "shards")?,
        },
        "shard_scheduled" => CampaignEvent::ShardScheduled {
            shard: get_usize(v, "shard")?,
            start: get_usize(v, "start")?,
            len: get_usize(v, "len")?,
        },
        "heartbeat" => CampaignEvent::Heartbeat {
            worker: get_usize(v, "worker")?,
            injections: get_usize(v, "injections")?,
            steps: get_u64(v, "steps")?,
        },
        "progress" => CampaignEvent::Progress(snapshot_from_json(v.get("progress")?)?),
        "shard_completed" => CampaignEvent::ShardCompleted(shard_from_json(v.get("record")?)?),
        "function_shard" => CampaignEvent::FunctionShardCompleted {
            name: v.get("name")?.as_str()?.to_owned(),
            hash: get_id(v, "hash")?,
            sites: get_usize(v, "sites")?,
            draws: get_usize(v, "draws")?,
            reused: matches!(v.get("reused")?, Json::Bool(true)),
        },
        "stage_timing" => CampaignEvent::StageTiming {
            worker: get_usize(v, "worker")?,
            stage: Stage::parse(v.get("stage")?.as_str()?)?,
            nanos: get_u64(v, "stage_nanos")?,
            count: get_u64(v, "count")?,
        },
        "finished" => CampaignEvent::Finished {
            tallies: tallies_from_json(v.get("tallies")?)?,
            wall_nanos: get_u64(v, "wall_nanos")?,
            injections_per_sec: v.get("injections_per_sec")?.as_f64()?,
            pruned: get_usize(v, "pruned")?,
            reused: get_usize(v, "reused")?,
        },
        _ => return None,
    };
    Some(FlightEvent { seq, nanos, event })
}

// ---------------------------------------------------------------------------
// Direct NDJSON writer
// ---------------------------------------------------------------------------
//
// `event_to_json(ev).to_string_compact()` allocates a `String` per
// object key; a shard-completed journal record carries one entry per
// fault, so at paper scale the tree's allocations alone would blow
// the recorder's overhead budget.  The writers below emit the exact
// same bytes straight into one buffer
// (`ndjson_writer_matches_the_json_tree` pins the equivalence).
//
// Numbers follow the tree path precisely: integers print as `i64`
// (matching `ToJson for u64`), floats via `json::write_f64`, and
// 64-bit identity fields as decimal strings (see `id_to_json`).

use std::fmt::Write as _;

fn put_key(out: &mut String, key: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
}

fn put_tallies(out: &mut String, t: &OutcomeTallies) {
    let _ = write!(
        out,
        "{{\"sdc\":{},\"detected\":{},\"crash\":{},\"timeout\":{},\"benign\":{}}}",
        t.sdc, t.detected, t.crash, t.timeout, t.benign
    );
}

fn put_fingerprint(out: &mut String, f: &CampaignFingerprint) {
    out.push_str("{\"workload\":");
    crate::json::write_escaped(out, &f.workload);
    out.push_str(",\"technique\":");
    crate::json::write_escaped(out, &f.technique);
    out.push_str(",\"executor\":");
    crate::json::write_escaped(out, &f.executor);
    let _ = write!(
        out,
        ",\"engine\":\"{}\",\"samples\":{},\"seed\":\"{}\",\"sites\":{},\"golden_dyn_insts\":{},\"program_hash\":\"{}\"}}",
        f.engine.label(),
        f.samples,
        f.seed,
        f.sites,
        f.golden_dyn_insts as i64,
        f.program_hash
    );
}

fn put_snapshot(out: &mut String, p: &ProgressSnapshot) {
    let _ = write!(
        out,
        "{{\"done\":{},\"total\":{},\"tallies\":",
        p.done, p.total
    );
    put_tallies(out, &p.tallies);
    out.push_str(",\"sdc_ci\":[");
    crate::json::write_f64(out, p.sdc_ci.0);
    out.push(',');
    crate::json::write_f64(out, p.sdc_ci.1);
    out.push_str("],\"rate\":");
    crate::json::write_f64(out, p.rate);
    out.push_str(",\"worker_rates\":[");
    for (i, r) in p.worker_rates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        crate::json::write_f64(out, *r);
    }
    out.push_str("],\"eta_nanos\":");
    match p.eta_nanos {
        Some(e) => {
            let _ = write!(out, "{}", e as i64);
        }
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"pruned\":{},\"reused\":{},\"elapsed_nanos\":{}}}",
        p.pruned, p.reused, p.elapsed_nanos as i64
    );
}

fn put_shard(out: &mut String, s: &ShardRecord) {
    let _ = write!(
        out,
        "{{\"shard\":{},\"start\":{},\"len\":{},\"seed\":\"{}\",\"program_hash\":\"{}\",\"tallies\":",
        s.shard, s.start, s.len, s.seed, s.program_hash
    );
    put_tallies(out, &s.tallies);
    out.push_str(",\"records\":[");
    for (i, (f, o)) in s.records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"dyn_index\":{},\"raw_bit\":{},\"outcome\":\"{}\"}}",
            f.dyn_index as i64,
            f.raw_bit,
            o.variant()
        );
    }
    out.push_str("]}");
}

/// Serializes one event as its NDJSON line (no trailing newline).
/// Byte-identical to `event_to_json(ev).to_string_compact()` but
/// writes directly, without building the tree.
pub fn event_to_ndjson(ev: &FlightEvent) -> String {
    let mut out = String::with_capacity(match &ev.event {
        CampaignEvent::ShardCompleted(s) => 160 + 56 * s.records.len(),
        _ => 256,
    });
    let _ = write!(
        out,
        "{{\"seq\":{},\"nanos\":{},\"type\":",
        ev.seq as i64, ev.nanos as i64
    );
    match &ev.event {
        CampaignEvent::Started {
            fingerprint,
            total,
            shard_size,
            shards,
        } => {
            out.push_str("\"started\",\"fingerprint\":");
            put_fingerprint(&mut out, fingerprint);
            let _ = write!(
                out,
                ",\"total\":{total},\"shard_size\":{shard_size},\"shards\":{shards}"
            );
        }
        CampaignEvent::ShardScheduled { shard, start, len } => {
            let _ = write!(
                out,
                "\"shard_scheduled\",\"shard\":{shard},\"start\":{start},\"len\":{len}"
            );
        }
        CampaignEvent::Heartbeat {
            worker,
            injections,
            steps,
        } => {
            let _ = write!(
                out,
                "\"heartbeat\",\"worker\":{worker},\"injections\":{injections},\"steps\":{}",
                *steps as i64
            );
        }
        CampaignEvent::Progress(p) => {
            out.push_str("\"progress\",");
            put_key(&mut out, "progress");
            put_snapshot(&mut out, p);
        }
        CampaignEvent::ShardCompleted(s) => {
            out.push_str("\"shard_completed\",");
            put_key(&mut out, "record");
            put_shard(&mut out, s);
        }
        CampaignEvent::FunctionShardCompleted {
            name,
            hash,
            sites,
            draws,
            reused,
        } => {
            out.push_str("\"function_shard\",\"name\":");
            crate::json::write_escaped(&mut out, name);
            let _ = write!(
                out,
                ",\"hash\":\"{hash}\",\"sites\":{sites},\"draws\":{draws},\"reused\":{reused}"
            );
        }
        CampaignEvent::StageTiming {
            worker,
            stage,
            nanos,
            count,
        } => {
            let _ = write!(
                out,
                "\"stage_timing\",\"worker\":{worker},\"stage\":\"{}\",\"stage_nanos\":{},\"count\":{}",
                stage.label(),
                *nanos as i64,
                *count as i64
            );
        }
        CampaignEvent::Finished {
            tallies,
            wall_nanos,
            injections_per_sec,
            pruned,
            reused,
        } => {
            out.push_str("\"finished\",");
            put_key(&mut out, "tallies");
            put_tallies(&mut out, tallies);
            let _ = write!(out, ",\"wall_nanos\":{}", *wall_nanos as i64);
            out.push_str(",\"injections_per_sec\":");
            crate::json::write_f64(&mut out, *injections_per_sec);
            let _ = write!(out, ",\"pruned\":{pruned},\"reused\":{reused}");
        }
    }
    out.push('}');
    out
}

/// Stage labels that journals written before a stage was retired
/// still carry (`injection`: faults run cold from the entry state).
/// Stage records hold no resume state, so [`parse_events`] drops them.
const RETIRED_STAGES: &[&str] = &["injection"];

/// True for a `stage_timing` record of a [`RETIRED_STAGES`] stage.
fn is_retired_stage_record(v: &Json) -> bool {
    v.get("type").and_then(Json::as_str) == Some("stage_timing")
        && v.get("stage")
            .and_then(Json::as_str)
            .is_some_and(|stage| RETIRED_STAGES.contains(&stage))
}

/// Parses an NDJSON event stream.  Blank lines and the stage records
/// of retired stages are skipped; a final line torn by a mid-write
/// kill is dropped (everything before it is kept); any other
/// unparseable line is an error.
///
/// # Errors
///
/// Returns the 1-based line number of the first malformed non-final
/// line.
pub fn parse_events(text: &str) -> Result<Vec<FlightEvent>, String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut events = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let json = crate::json::parse(line).ok();
        if json.as_ref().is_some_and(is_retired_stage_record) {
            continue;
        }
        match json.as_ref().and_then(event_from_json) {
            Some(ev) => events.push(ev),
            None if i + 1 == lines.len() => break,
            None => return Err(format!("malformed event at line {}", i + 1)),
        }
    }
    Ok(events)
}

/// Reconstructs a resume journal from NDJSON text: [`parse_events`]
/// then [`JournalSnapshot::from_events`].
///
/// # Errors
///
/// Propagates [`parse_events`] errors; `"no campaign in journal"` when
/// the stream has no started event.
pub fn journal_from_ndjson(text: &str) -> Result<JournalSnapshot, String> {
    let events = parse_events(text)?;
    JournalSnapshot::from_events(&events).ok_or_else(|| "no campaign in journal".to_owned())
}

/// A [`FlightSink`] that writes each event as one NDJSON line and
/// flushes immediately — the write-ahead property.  IO errors are
/// swallowed (a full disk must not abort the campaign; the journal
/// just ends early, which truncation-tolerant parsing handles).
pub struct NdjsonSink {
    out: Mutex<Box<dyn std::io::Write + Send>>,
}

impl NdjsonSink {
    /// Wraps any writer (a `File` for journals, `io::sink()` for
    /// overhead measurement).
    pub fn new(out: Box<dyn std::io::Write + Send>) -> NdjsonSink {
        NdjsonSink {
            out: Mutex::new(out),
        }
    }

    /// Creates (truncates) `path` and journals into it.
    ///
    /// # Errors
    ///
    /// Propagates file creation errors.
    pub fn create(path: &str) -> std::io::Result<NdjsonSink> {
        Ok(NdjsonSink::new(Box::new(std::fs::File::create(path)?)))
    }
}

impl FlightSink for NdjsonSink {
    fn record_event(&self, ev: &FlightEvent) {
        let line = event_to_ndjson(ev);
        if let Ok(mut out) = self.out.lock() {
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
        }
    }
}

/// Per-worker liveness tracking over a flight-event stream.
///
/// Heartbeats arrive at a roughly fixed per-worker cadence
/// (every `total/10` of its own injections), so a worker whose
/// heartbeats stop is either finished or wedged on a pathological
/// fault.  The tracker learns each worker's cadence from its observed
/// inter-heartbeat gaps (the maximum gap, so bursty-but-live workers
/// are not flagged) and reports a worker *stalled* once it has been
/// silent for more than twice that cadence.  Workers with fewer than
/// two heartbeats have no cadence yet and are never flagged.
#[derive(Debug, Default)]
pub struct StallTracker {
    workers: Vec<Option<WorkerBeat>>,
}

#[derive(Debug, Clone, Copy)]
struct WorkerBeat {
    /// Stream timestamp of the most recent heartbeat.
    last_nanos: u64,
    /// Largest observed gap between consecutive heartbeats; `None`
    /// until a second heartbeat establishes a cadence.
    cadence_nanos: Option<u64>,
}

impl StallTracker {
    /// An empty tracker (no workers observed yet).
    pub fn new() -> StallTracker {
        StallTracker::default()
    }

    /// Feeds one event from the stream.  Only heartbeats move the
    /// tracker; a campaign start resets it (worker indices are
    /// per-campaign).
    pub fn observe(&mut self, ev: &FlightEvent) {
        match &ev.event {
            CampaignEvent::Started { .. } => self.workers.clear(),
            CampaignEvent::Heartbeat { worker, .. } => {
                if self.workers.len() <= *worker {
                    self.workers.resize(*worker + 1, None);
                }
                let slot = &mut self.workers[*worker];
                *slot = Some(match *slot {
                    None => WorkerBeat {
                        last_nanos: ev.nanos,
                        cadence_nanos: None,
                    },
                    Some(prev) => {
                        let gap = ev.nanos.saturating_sub(prev.last_nanos);
                        WorkerBeat {
                            last_nanos: ev.nanos,
                            cadence_nanos: Some(prev.cadence_nanos.map_or(gap, |c| c.max(gap))),
                        }
                    }
                });
            }
            _ => {}
        }
    }

    /// Workers silent for more than twice their observed cadence as of
    /// stream time `now_nanos`, ascending.
    pub fn stalled(&self, now_nanos: u64) -> Vec<usize> {
        self.workers
            .iter()
            .enumerate()
            .filter_map(|(w, beat)| {
                let beat = (*beat)?;
                let cadence = beat.cadence_nanos?;
                (now_nanos.saturating_sub(beat.last_nanos) > cadence.saturating_mul(2)).then_some(w)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<FlightEvent> {
        let fingerprint = CampaignFingerprint {
            workload: "bfs".into(),
            technique: "ferrum".into(),
            executor: "serial".into(),
            engine: EngineKind::Decoded,
            samples: 4,
            seed: 0xFE44,
            sites: 123,
            golden_dyn_insts: 456,
            // Top bit set: a hash in the i64-negative half must
            // survive the trip (identity fields travel as strings).
            program_hash: 0xDEAD_BEEF_DEAD_BEEF,
        };
        let tallies = OutcomeTallies {
            sdc: 1,
            detected: 1,
            crash: 0,
            timeout: 0,
            benign: 2,
        };
        vec![
            FlightEvent {
                seq: 0,
                nanos: 0,
                event: CampaignEvent::Started {
                    fingerprint,
                    total: 4,
                    shard_size: 2,
                    shards: 2,
                },
            },
            FlightEvent {
                seq: 1,
                nanos: 0,
                event: CampaignEvent::ShardScheduled {
                    shard: 0,
                    start: 0,
                    len: 2,
                },
            },
            FlightEvent {
                seq: 2,
                nanos: 10,
                event: CampaignEvent::Heartbeat {
                    worker: 1,
                    injections: 2,
                    steps: 99,
                },
            },
            FlightEvent {
                seq: 3,
                nanos: 20,
                event: CampaignEvent::ShardCompleted(ShardRecord {
                    shard: 0,
                    start: 0,
                    len: 2,
                    seed: 0xFE44,
                    program_hash: 0xDEAD_BEEF_DEAD_BEEF,
                    tallies: OutcomeTallies {
                        sdc: 1,
                        benign: 1,
                        ..OutcomeTallies::default()
                    },
                    records: vec![
                        (FaultSpec::new(17, 3), Outcome::Sdc),
                        (FaultSpec::new(40, 0), Outcome::Benign),
                    ],
                }),
            },
            FlightEvent {
                seq: 4,
                nanos: 30,
                event: CampaignEvent::Progress(ProgressSnapshot {
                    done: 2,
                    total: 4,
                    tallies: OutcomeTallies {
                        sdc: 1,
                        benign: 1,
                        ..OutcomeTallies::default()
                    },
                    sdc_ci: (0.25, 0.75),
                    rate: 1000.0,
                    worker_rates: vec![500.0, 500.0],
                    eta_nanos: Some(2_000_000),
                    pruned: 0,
                    reused: 1,
                    elapsed_nanos: 30,
                }),
            },
            FlightEvent {
                seq: 5,
                nanos: 35,
                event: CampaignEvent::FunctionShardCompleted {
                    name: "helper".into(),
                    hash: 42,
                    sites: 7,
                    draws: 3,
                    reused: true,
                },
            },
            FlightEvent {
                seq: 6,
                nanos: 38,
                event: CampaignEvent::StageTiming {
                    worker: 1,
                    stage: Stage::Replay,
                    nanos: 1234,
                    count: 2,
                },
            },
            FlightEvent {
                seq: 7,
                nanos: 40,
                event: CampaignEvent::Finished {
                    tallies,
                    wall_nanos: 40,
                    injections_per_sec: 1e5,
                    pruned: 0,
                    reused: 1,
                },
            },
        ]
    }

    #[test]
    fn ndjson_writer_matches_the_json_tree() {
        // The direct writer exists purely for speed; its output must
        // stay byte-identical to the tree path for every event shape,
        // including the degenerate progress forms (no ETA yet, no
        // workers yet).
        let mut events = sample_events();
        events.push(FlightEvent {
            seq: 8,
            nanos: 50,
            event: CampaignEvent::Progress(ProgressSnapshot {
                done: 0,
                total: 4,
                tallies: OutcomeTallies::default(),
                sdc_ci: (0.0, 1.0),
                rate: 0.0,
                worker_rates: vec![],
                eta_nanos: None,
                pruned: 0,
                reused: 0,
                elapsed_nanos: 50,
            }),
        });
        for ev in &events {
            assert_eq!(
                event_to_ndjson(ev),
                event_to_json(ev).to_string_compact(),
                "writer diverged on {ev:?}"
            );
        }
    }

    #[test]
    fn ndjson_round_trip_is_lossless() {
        let events = sample_events();
        let text: String = events.iter().map(|e| event_to_ndjson(e) + "\n").collect();
        for line in text.lines() {
            assert!(!line.contains('\n'));
        }
        let parsed = parse_events(&text).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn torn_final_line_is_dropped_not_fatal() {
        let events = sample_events();
        let mut text: String = events.iter().map(|e| event_to_ndjson(e) + "\n").collect();
        // Simulate a kill mid-write: keep half of the last line.
        let keep = text.len() - 25;
        text.truncate(keep);
        let parsed = parse_events(&text).unwrap();
        assert_eq!(parsed.len(), events.len() - 1);
        assert_eq!(parsed, events[..events.len() - 1]);
        // A malformed line in the middle IS fatal.
        let bad = format!(
            "{}\ngarbage\n{}\n",
            event_to_ndjson(&events[0]),
            event_to_ndjson(&events[1])
        );
        assert!(parse_events(&bad).is_err());
    }

    #[test]
    fn journal_reconstructs_from_ndjson() {
        let events = sample_events();
        let text: String = events.iter().map(|e| event_to_ndjson(e) + "\n").collect();
        let j = journal_from_ndjson(&text).unwrap();
        assert_eq!(j.fingerprint.workload, "bfs");
        assert_eq!(j.total, 4);
        assert_eq!(j.shards.len(), 1);
        assert_eq!(j.completed(), 2);
        assert!(j.finished);
        assert!(journal_from_ndjson("").is_err());
    }

    #[test]
    fn stall_tracker_flags_silent_workers_only_after_a_cadence_exists() {
        let beat = |seq: u64, nanos: u64, worker: usize| FlightEvent {
            seq,
            nanos,
            event: CampaignEvent::Heartbeat {
                worker,
                injections: 1,
                steps: 1,
            },
        };
        let mut t = StallTracker::new();
        // One heartbeat establishes presence but no cadence: a worker
        // that reported once and went quiet is indistinguishable from
        // one that finished its shard.
        t.observe(&beat(0, 100, 0));
        assert_eq!(t.stalled(10_000), Vec::<usize>::new());
        // A second heartbeat fixes worker 0's cadence at 400ns.
        t.observe(&beat(1, 500, 0));
        assert_eq!(t.stalled(1_300), Vec::<usize>::new()); // exactly 2x: not yet
        assert_eq!(t.stalled(1_301), vec![0]); // past 2x: stalled
                                               // Worker 1 beats at a slower cadence and stays live longer.
        t.observe(&beat(2, 200, 1));
        t.observe(&beat(3, 1_200, 1));
        assert_eq!(t.stalled(1_301), vec![0]);
        assert_eq!(t.stalled(3_300), vec![0, 1]);
        // Cadence is the max observed gap: a fast beat after a slow
        // one must not shrink the allowance.
        t.observe(&beat(4, 1_250, 1));
        assert_eq!(t.stalled(3_250), vec![0]);
        // A beat from worker 0 clears its flag.
        t.observe(&beat(5, 3_000, 0));
        assert_eq!(t.stalled(3_250), Vec::<usize>::new());
        // A new campaign resets everything.
        t.observe(&sample_events()[0]);
        assert_eq!(t.stalled(1 << 40), Vec::<usize>::new());
    }

    #[test]
    fn ndjson_sink_writes_one_line_per_event() {
        use std::sync::{Arc, Mutex};

        // A Vec<u8> writer we can inspect after the sink drops.
        #[derive(Clone, Default)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let shared = Shared::default();
        let sink = NdjsonSink::new(Box::new(shared.clone()));
        let events = sample_events();
        for ev in &events {
            sink.record_event(ev);
        }
        let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), events.len());
        assert_eq!(parse_events(&text).unwrap(), events);
    }
}
