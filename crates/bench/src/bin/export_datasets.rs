//! Exports the derived datasets (artifact-appendix shapes) as CSV files:
//! runs a short full pipeline — engine, coarsening, cluster/job collapse,
//! thermal summary, failure log — and writes one CSV per dataset.
//!
//! ```sh
//! cargo run --release -p summit-bench --bin export_datasets -- [out_dir]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use summit_sim::engine::{Engine, EngineConfig, StepOptions};
use summit_sim::failures::{FailureModel, ThermalRegime};
use summit_sim::jobs::JobGenerator;
use summit_telemetry::batch::FrameBatch;
use summit_telemetry::cluster::cluster_power;
use summit_telemetry::datasets::thermal_cluster;
use summit_telemetry::export;
use summit_telemetry::ids::NodeId;
use summit_telemetry::jobjoin::{job_level_power, join_jobs, AllocationIndex};
use summit_telemetry::stream::IngestStats;
use summit_telemetry::window::WindowAggregator;

fn main() -> std::io::Result<()> {
    let out_dir: PathBuf = std::env::args()
        .nth(1)
        .filter(|a| a != "--full")
        .unwrap_or_else(|| "dataset_export".into())
        .into();
    std::fs::create_dir_all(&out_dir)?;

    // A 10-minute, 8-cabinet run with a few jobs.
    let cabinets = 8;
    let duration = 600usize;
    let mut engine = Engine::new(EngineConfig::small(cabinets), 0.0);
    let mut rng = StdRng::seed_from_u64(77);
    let mut gen = JobGenerator::new();
    let mut job_records = Vec::new();
    for k in 0..4 {
        let mut job = gen.generate_with_class(&mut rng, 30.0 + 120.0 * k as f64, 5);
        job.record.node_count = 30;
        job.record.end_time = job.record.begin_time + 240.0;
        job_records.push(job.record.clone());
        engine.scheduler().submit(job);
    }

    let nodes = engine.topology().node_count();
    let mut frames_by_node: Vec<Vec<_>> =
        (0..nodes).map(|_| Vec::with_capacity(duration)).collect();
    let mut ceps = Vec::with_capacity(duration);
    let mut batch = FrameBatch::new();
    for _ in 0..duration {
        let out = engine.step_batch(&StepOptions { frames: true }, &mut batch);
        ceps.push(out.cep);
        for row in 0..batch.len() {
            let f = batch.read_frame(row);
            frames_by_node[f.node.index()].push(f);
        }
    }
    let allocations = engine.scheduler_ref().all_node_allocations();

    // Coarsen, tracking ingest health along the way.
    let mut stats = IngestStats::default();
    let windows: Vec<_> = frames_by_node
        .iter()
        .enumerate()
        .map(|(n, fs)| {
            let mut agg = WindowAggregator::paper(NodeId(n as u32));
            for f in fs {
                stats.observe(f);
                let _ = agg.push(f);
            }
            let (windows, health) = agg.finish_with_health();
            stats.health.merge(&health);
            windows
        })
        .collect();

    // Derived datasets.
    let cluster = cluster_power(&windows);
    let index = AllocationIndex::build(&allocations);
    let (job_rows, _) = join_jobs(&windows, &index);
    let job_level = job_level_power(&job_rows, 10.0);
    let thermal = thermal_cluster(&windows, &ceps);
    let failures = {
        let model = FailureModel::new(ThermalRegime::SummitLiquidCooled, nodes);
        let jobs: Vec<summit_sim::jobs::SyntheticJob> = Vec::new();
        let mut ev = model.generate(&mut rng, &jobs, nodes, 0.0, duration as f64);
        ev.truncate(200);
        ev
    };

    let write = |name: &str, f: &dyn Fn(&mut BufWriter<File>) -> std::io::Result<()>| {
        let path = out_dir.join(name);
        let mut w = BufWriter::new(File::create(&path)?);
        f(&mut w)?;
        println!("wrote {}", path.display());
        Ok::<(), std::io::Error>(())
    };
    write("dataset1_cluster_power.csv", &|w| {
        export::write_cluster_power(w, &cluster)
    })?;
    write("dataset3_job_power.csv", &|w| {
        export::write_job_power(w, &job_rows)
    })?;
    write("dataset5_job_level.csv", &|w| {
        export::write_job_level(w, &job_level)
    })?;
    write("datasetC_job_records.csv", &|w| {
        export::write_job_records(w, &job_records)
    })?;
    write("dataset8_thermal.csv", &|w| {
        export::write_thermal(w, &thermal)
    })?;
    write("datasetE_xid_events.csv", &|w| {
        export::write_xid_events(w, &failures)
    })?;
    write("ingest_health.csv", &|w| {
        export::write_ingest_health(w, &stats)
    })?;
    println!(
        "\n{} cluster windows, {} job windows, {} jobs, {} thermal rows exported to {}",
        cluster.len(),
        job_rows.len(),
        job_level.len(),
        thermal.len(),
        out_dir.display()
    );
    Ok(())
}
