//! The traced run's span store: spans kept in memory per generator
//! thread, self time = span − children, layer shares of busy time, and a
//! Chrome/Perfetto file written when the run ends.
//!
//! Every span is recorded from the benchmark's side of a public call —
//! either by a [`Lane`] guard around the call, or by the harness runner's
//! own [`TraceSink`] hooks (`Runner::with_trace`), which the lane drains
//! after each job. A lane belongs to one thread, so its spans nest by
//! containment and parents need no bookkeeping at record time.

use eod_telemetry::{Span, TraceSink, Track};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span, on the tracer's common clock.
#[derive(Debug, Clone)]
pub struct Rec {
    /// Span name.
    pub name: String,
    /// Layer (crate) the time is attributed to.
    pub layer: &'static str,
    /// Start, µs since the tracer's epoch.
    pub start_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
    /// Job the span belongs to (index in the workload's job stream).
    pub job: u64,
    /// Index of the enclosing span within the lane, once resolved.
    pub parent: Option<usize>,
}

impl Rec {
    fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }
}

/// All lanes of one traced run.
pub struct Tracer {
    epoch: Instant,
    lanes: Mutex<Vec<(String, Vec<Rec>)>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            lanes: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Open a lane for the calling thread.
    pub fn lane(&self, name: impl Into<String>) -> Lane<'_> {
        let before = self.epoch.elapsed().as_secs_f64();
        let sink = Arc::new(TraceSink::new());
        let after = self.epoch.elapsed().as_secs_f64();
        Lane {
            tracer: self,
            name: name.into(),
            sink,
            sink_offset_us: (before + after) / 2.0 * 1e6,
            recs: Vec::new(),
            device_commands: 0,
        }
    }

    /// Spans recorded so far, all lanes.
    pub fn span_count(&self) -> usize {
        self.lanes
            .lock()
            .unwrap()
            .iter()
            .map(|(_, r)| r.len())
            .sum()
    }

    /// Self time per layer, µs.
    pub fn layer_self_us(&self) -> BTreeMap<&'static str, f64> {
        let lanes = self.lanes.lock().unwrap();
        let mut out = BTreeMap::new();
        for (_, recs) in lanes.iter() {
            let mut child_us = vec![0.0; recs.len()];
            for r in recs.iter() {
                if let Some(p) = r.parent {
                    child_us[p] += r.dur_us;
                }
            }
            for (r, covered) in recs.iter().zip(child_us) {
                *out.entry(r.layer).or_insert(0.0) += (r.dur_us - covered).max(0.0);
            }
        }
        out
    }

    /// Mean duration per job, ms, of spans whose name satisfies `pick`,
    /// over `jobs` jobs (a job with several matching spans sums them).
    pub fn mean_ms_per_job(&self, jobs: usize, pick: impl Fn(&str) -> bool) -> f64 {
        let lanes = self.lanes.lock().unwrap();
        let total_us: f64 = lanes
            .iter()
            .flat_map(|(_, recs)| recs.iter())
            .filter(|r| pick(&r.name))
            .map(|r| r.dur_us)
            .sum();
        total_us / 1e3 / jobs.max(1) as f64
    }

    /// Render every lane as a Chrome trace-event document (one thread
    /// per lane, `job`/`layer`/`parent` in each slice's arguments).
    pub fn render_chrome(&self, process: &str) -> String {
        let lanes = self.lanes.lock().unwrap();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
            json_str(process)
        );
        for (tid, (name, recs)) in lanes.iter().enumerate() {
            let _ = write!(
                out,
                ",{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                json_str(name)
            );
            for r in recs.iter() {
                let _ = write!(
                    out,
                    ",{{\"ph\":\"X\",\"name\":{},\"cat\":{},\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"job\":{},\"layer\":{}",
                    json_str(&r.name),
                    json_str(r.layer),
                    r.start_us,
                    r.dur_us,
                    r.job,
                    json_str(r.layer),
                );
                if let Some(p) = r.parent {
                    let _ = write!(out, ",\"parent\":{}", json_str(&recs[p].name));
                }
                out.push_str("}}");
            }
        }
        out.push_str("]}");
        out
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("strings always serialize")
}

/// A runner sink has its own epoch; placing it on the tracer's clock is
/// good to about a microsecond, so containment is judged with this slack.
const CLOCK_SLACK_US: f64 = 2.0;

/// Parent of each span = the innermost earlier span of the lane that
/// contains it. Spans of one thread either nest or are disjoint.
fn resolve_parents(recs: &mut [Rec]) {
    let mut order: Vec<usize> = (0..recs.len()).collect();
    order.sort_by(|&a, &b| {
        recs[a]
            .start_us
            .total_cmp(&recs[b].start_us)
            .then(recs[b].dur_us.total_cmp(&recs[a].dur_us))
    });
    let mut stack: Vec<usize> = Vec::new();
    for i in order {
        while stack
            .last()
            .is_some_and(|&top| recs[top].end_us() + CLOCK_SLACK_US < recs[i].end_us())
        {
            stack.pop();
        }
        recs[i].parent = stack.last().copied();
        stack.push(i);
    }
}

/// One thread's span recorder. Dropping it resolves each span's parent
/// and hands the lane to the tracer.
pub struct Lane<'t> {
    tracer: &'t Tracer,
    name: String,
    /// Sink handed to `Runner::with_trace`; drained after every job.
    sink: Arc<TraceSink>,
    /// The sink's epoch on the tracer's clock.
    sink_offset_us: f64,
    recs: Vec<Rec>,
    device_commands: u64,
}

impl Lane<'_> {
    /// The sink to attach to a traced runner on this thread.
    pub fn sink(&self) -> Arc<TraceSink> {
        Arc::clone(&self.sink)
    }

    /// Time `f` as one span attributed to `layer`.
    pub fn span<R>(
        &mut self,
        name: &str,
        layer: &'static str,
        job: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_us = self.tracer.epoch.elapsed().as_secs_f64() * 1e6;
        let out = f();
        let dur_us = self.tracer.epoch.elapsed().as_secs_f64() * 1e6 - start_us;
        self.recs.push(Rec {
            name: name.to_string(),
            layer,
            start_us,
            dur_us,
            job,
            parent: None,
        });
        out
    }

    /// Move what the runner recorded for `job` into the lane: host-phase
    /// spans are kept (attributed by [`phase_layer`]); device-track spans
    /// — one per launch, millions per run, on the modeled queue clock —
    /// are counted and dropped.
    pub fn absorb_runner_spans(&mut self, job: u64, native: bool, synthetic: bool) {
        for s in self.sink.drain() {
            if s.track != Track::Host {
                self.device_commands += 1;
                continue;
            }
            self.recs.push(Rec {
                layer: phase_layer(&s, native, synthetic),
                name: s.name,
                start_us: s.start_us + self.sink_offset_us,
                dur_us: s.dur_us,
                job,
                parent: None,
            });
        }
    }
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        let mut name = std::mem::take(&mut self.name);
        if self.device_commands > 0 {
            let _ = write!(name, " ({} device commands not kept)", self.device_commands);
        }
        let mut recs = std::mem::take(&mut self.recs);
        resolve_parents(&mut recs);
        // Never panic in drop: a poisoned lock still holds valid lanes.
        self.tracer
            .lanes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((name, recs));
    }
}

/// Which layer a runner host-phase span's self time belongs to, judged
/// from outside the crates by what the phase calls:
///
/// * `group …` — the runner's own bookkeeping and statistics → `harness`;
/// * `setup`, `first_iteration`, `verify` — input generation, one real
///   execution of the kernel bodies, the serial reference → `dwarfs`
///   (`synth` for synthetic probes);
/// * `sample N` — on a simulated device the replayed loop executes no
///   kernel body, only launch pricing and counter synthesis → `devsim`;
///   on `native` it is real work-group dispatch and kernel bodies →
///   `dwarfs`/`synth`.
fn phase_layer(span: &Span, native: bool, synthetic: bool) -> &'static str {
    let body = if synthetic { "synth" } else { "dwarfs" };
    if span.name.starts_with("group ") {
        "harness"
    } else if span.name.starts_with("sample ") && !native {
        "devsim"
    } else {
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, layer: &'static str, start: f64, dur: f64) -> Rec {
        Rec {
            name: name.into(),
            layer,
            start_us: start,
            dur_us: dur,
            job: 0,
            parent: None,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let tracer = Tracer::default();
        let mut recs = vec![
            // Recorded in completion order, as guards drop.
            rec("setup", "dwarfs", 10.0, 20.0),
            rec("sample 0", "devsim", 40.0, 50.0),
            rec("group crc tiny", "harness", 5.0, 90.0),
            rec("execute_spec", "harness", 0.0, 100.0),
            rec("execute_spec", "harness", 100.0, 10.0),
        ];
        resolve_parents(&mut recs);
        tracer.lanes.lock().unwrap().push(("t0".into(), recs));
        let by_layer = tracer.layer_self_us();
        assert_eq!(by_layer["dwarfs"], 20.0);
        assert_eq!(by_layer["devsim"], 50.0);
        // group: 90 − 70; first execute_spec: 100 − 90; second: 10.
        assert_eq!(by_layer["harness"], 20.0 + 10.0 + 10.0);
        let total: f64 = by_layer.values().sum();
        assert_eq!(total, 110.0, "self times sum to the root spans");
        assert_eq!(tracer.mean_ms_per_job(2, |n| n == "setup"), 0.01);
        let doc = tracer.render_chrome("test");
        assert!(doc.contains("\"parent\":\"group crc tiny\""));
        let v: serde_json::Value = serde_json::from_str(&doc).unwrap();
        assert!(matches!(
            v.get_field("traceEvents"),
            serde_json::Value::Seq(_)
        ));
    }

    #[test]
    fn lanes_record_on_a_common_clock() {
        let tracer = Tracer::default();
        {
            let mut lane = tracer.lane("a");
            let sink = lane.sink();
            lane.span("outer", "harness", 3, || {
                let _g = sink.host_span("group x tiny");
            });
            lane.absorb_runner_spans(3, false, false);
        }
        assert_eq!(tracer.span_count(), 2);
        let lanes = tracer.lanes.lock().unwrap();
        let recs = &lanes[0].1;
        let outer = recs.iter().find(|r| r.name == "outer").unwrap();
        let inner = recs.iter().find(|r| r.name == "group x tiny").unwrap();
        assert!(
            outer.start_us <= inner.start_us + CLOCK_SLACK_US
                && inner.end_us() <= outer.end_us() + CLOCK_SLACK_US
        );
        assert_eq!(inner.job, 3);
    }
}
