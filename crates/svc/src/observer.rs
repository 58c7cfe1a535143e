//! Streaming JSONL round logs: an [`Observer`] that appends one
//! self-describing line per simulated round to a shared append-only sink.
//!
//! A session-driven job runs `topologies × {cas, midas}` simulations, in
//! parallel across sweep workers — and, when the sweep has at least two
//! workers per trial, one trial's CAS and MIDAS simulations side by side.
//! Each simulation gets its own [`JsonlObserver`], which buffers its lines
//! locally and appends them to the [`JsonlSink`] as one block when the
//! simulation finishes — so lines from different simulations never
//! interleave, and every line carries its `trial`/`mac` tags so consumers
//! can regroup blocks regardless of the completion order (which worker
//! scheduling decides).  Blocks of different trials may arrive in any
//! order, and one trial's CAS and MIDAS blocks in either order.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::json::Json;
use midas::sim::{Observer, RoundRecord, StageTimings};

/// A shared append-only JSONL file; blocks of lines append atomically with
/// respect to each other.
pub struct JsonlSink {
    inner: Mutex<SinkInner>,
}

struct SinkInner {
    writer: BufWriter<File>,
    error: Option<io::Error>,
}

impl JsonlSink {
    /// Creates (truncates) the file at `path`.
    pub fn create(path: &Path) -> io::Result<JsonlSink> {
        Ok(JsonlSink {
            inner: Mutex::new(SinkInner {
                writer: BufWriter::new(File::create(path)?),
                error: None,
            }),
        })
    }

    /// Appends a block of lines (each gains a trailing `\n`).  I/O errors
    /// are latched and surfaced by [`JsonlSink::finish`] — observers run
    /// inside the sweep's parallel closures, where propagating is not an
    /// option.
    pub fn append_block(&self, lines: &[String]) {
        let mut inner = self.inner.lock().expect("jsonl sink poisoned");
        if inner.error.is_some() {
            return;
        }
        for line in lines {
            if let Err(e) = inner
                .writer
                .write_all(line.as_bytes())
                .and_then(|_| inner.writer.write_all(b"\n"))
            {
                inner.error = Some(e);
                return;
            }
        }
    }

    /// Flushes and returns the first latched write error, if any.
    pub fn finish(self) -> io::Result<()> {
        let mut inner = self.inner.into_inner().expect("jsonl sink poisoned");
        if let Some(e) = inner.error {
            return Err(e);
        }
        inner.writer.flush()
    }
}

/// The per-simulation observer: one line per round, plus a header line and
/// (when stage profiling is on) a closing stage-timings line.
pub struct JsonlObserver<'a> {
    sink: &'a JsonlSink,
    trial: usize,
    mac: &'static str,
    lines: Vec<String>,
}

impl<'a> JsonlObserver<'a> {
    /// An observer tagging its lines with `trial` and `mac` ("cas" /
    /// "midas").
    pub fn new(sink: &'a JsonlSink, trial: usize, mac: &'static str) -> Self {
        JsonlObserver {
            sink,
            trial,
            mac,
            lines: Vec::new(),
        }
    }

    fn tagged(&self, mut members: Vec<(String, Json)>) -> String {
        let mut line = vec![
            ("trial".to_string(), Json::UInt(self.trial as u64)),
            ("mac".to_string(), Json::Str(self.mac.into())),
        ];
        line.append(&mut members);
        Json::Obj(line).write_compact()
    }
}

impl Observer for JsonlObserver<'_> {
    fn on_start(&mut self, num_clients: usize, num_aps: usize, rounds: usize) {
        self.lines.clear();
        self.lines.push(self.tagged(vec![
            ("clients".into(), Json::UInt(num_clients as u64)),
            ("aps".into(), Json::UInt(num_aps as u64)),
            ("rounds".into(), Json::UInt(rounds as u64)),
        ]));
    }

    fn on_round(&mut self, record: &RoundRecord<'_>) {
        self.lines.push(self.tagged(vec![
            ("round".into(), Json::UInt(record.round as u64)),
            ("capacity".into(), Json::Num(record.total_capacity())),
            ("streams".into(), Json::UInt(record.streams as u64)),
            (
                "deliveries".into(),
                Json::UInt(record.deliveries.len() as u64),
            ),
            (
                "transmitting_aps".into(),
                Json::Arr(
                    record
                        .transmitting_aps
                        .iter()
                        .map(|&ap| Json::UInt(ap as u64))
                        .collect(),
                ),
            ),
        ]));
    }

    fn on_finish(&mut self, timings: &StageTimings) {
        if timings.rounds > 0 {
            let stages: Vec<(String, Json)> = timings
                .stages()
                .iter()
                .map(|&(name, seconds)| (name.to_string(), Json::Num(seconds)))
                .chain([
                    ("total".to_string(), Json::Num(timings.total_s())),
                    ("rounds".to_string(), Json::UInt(timings.rounds as u64)),
                ])
                .collect();
            self.lines
                .push(self.tagged(vec![("stage_timings".into(), Json::Obj(stages))]));
        }
        self.sink.append_block(&self.lines);
        self.lines.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_stay_contiguous_and_lines_are_tagged() {
        let dir = std::env::temp_dir().join(format!("midas-jsonl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rounds.jsonl");
        let sink = JsonlSink::create(&path).unwrap();

        let mut obs = JsonlObserver::new(&sink, 3, "midas");
        obs.on_start(2, 1, 2);
        let deliveries = [(0usize, 0usize, 1.5f64), (1, 0, 2.25)];
        obs.on_round(&RoundRecord {
            round: 0,
            deliveries: &deliveries,
            transmitting_aps: &[0],
            streams: 2,
        });
        obs.on_finish(&StageTimings::default());
        sink.finish().unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("trial").unwrap().as_u64(), Some(3));
            assert_eq!(v.get("mac").unwrap().as_str(), Some("midas"));
        }
        let round = Json::parse(lines[1]).unwrap();
        assert_eq!(round.get("capacity").unwrap().as_f64(), Some(3.75));
        assert_eq!(round.get("streams").unwrap().as_u64(), Some(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stage_timings_line_appears_only_when_profiled() {
        let dir = std::env::temp_dir().join(format!("midas-jsonl-prof-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rounds.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        let mut obs = JsonlObserver::new(&sink, 0, "cas");
        obs.on_start(1, 1, 0);
        let timings = StageTimings {
            rounds: 4,
            evolve_s: 0.5,
            ..StageTimings::default()
        };
        obs.on_finish(&timings);
        sink.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let last = Json::parse(text.lines().last().unwrap()).unwrap();
        let stages = last.get("stage_timings").unwrap();
        assert_eq!(stages.get("evolve").unwrap().as_f64(), Some(0.5));
        assert_eq!(stages.get("rounds").unwrap().as_u64(), Some(4));
        std::fs::remove_dir_all(&dir).ok();
    }
}
