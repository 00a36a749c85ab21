//! CSV export of the derived datasets.
//!
//! The paper's artifact appendix ships every derived dataset as daily
//! CSV/parquet files; this module writes the same row shapes as CSV so
//! downstream tooling (pandas, DuckDB, gnuplot) can consume the
//! reproduction's outputs. Writers are plain [`std::io::Write`] sinks —
//! files, buffers, or pipes.

use crate::cluster::ClusterPowerRow;
use crate::datasets::ThermalRow;
use crate::jobjoin::{JobLevelPower, JobPowerRow};
use crate::records::{JobRecord, XidEvent};
use crate::stream::IngestStats;
use std::io::{self, Write};

/// Escapes a CSV field (quotes when needed).
fn field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn fmt(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::new() // empty cell = missing, the pandas convention
    }
}

/// Starts the shared export span and counts `rows` into the registry;
/// every writer below times itself under `summit_telemetry_export`.
fn obs_export(rows: usize) -> summit_obs::SpanGuard {
    summit_obs::counter("summit_telemetry_export_rows_total").inc_by(rows as u64);
    summit_obs::span("summit_telemetry_export")
}

/// Writes Dataset-1-shaped cluster power rows.
pub fn write_cluster_power<W: Write>(out: &mut W, rows: &[ClusterPowerRow]) -> io::Result<()> {
    let _obs = obs_export(rows.len());
    writeln!(out, "timestamp,count_inp,sum_inp,mean_inp,max_inp")?;
    for r in rows {
        writeln!(
            out,
            "{},{},{},{},{}",
            r.window_start,
            r.count_inp,
            fmt(r.sum_inp),
            fmt(r.mean_inp),
            fmt(r.max_inp)
        )?;
    }
    Ok(())
}

/// Writes Dataset-3-shaped per-job power rows.
pub fn write_job_power<W: Write>(out: &mut W, rows: &[JobPowerRow]) -> io::Result<()> {
    let _obs = obs_export(rows.len());
    writeln!(
        out,
        "allocation_id,timestamp,count_hostname,sum_inp,mean_inp,max_inp"
    )?;
    for r in rows {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            r.allocation_id.0,
            r.window_start,
            r.count_hostname,
            fmt(r.sum_inp),
            fmt(r.mean_inp),
            fmt(r.max_inp)
        )?;
    }
    Ok(())
}

/// Writes Dataset-5-shaped job-level power rows.
pub fn write_job_level<W: Write>(out: &mut W, rows: &[JobLevelPower]) -> io::Result<()> {
    let _obs = obs_export(rows.len());
    writeln!(
        out,
        "allocation_id,max_sum_inp,mean_sum_inp,begin_time,end_time,energy_j"
    )?;
    for r in rows {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            r.allocation_id.0,
            fmt(r.max_sum_inp),
            fmt(r.mean_sum_inp),
            r.begin_time,
            r.end_time,
            fmt(r.energy_j)
        )?;
    }
    Ok(())
}

/// Writes Dataset-C-shaped scheduler allocation history.
pub fn write_job_records<W: Write>(out: &mut W, rows: &[JobRecord]) -> io::Result<()> {
    let _obs = obs_export(rows.len());
    writeln!(
        out,
        "allocation_id,class,node_count,project,domain,begin_time,end_time"
    )?;
    for r in rows {
        writeln!(
            out,
            "{},{},{},{},{},{},{}",
            r.allocation_id.0,
            r.class,
            r.node_count,
            field(&r.project),
            field(r.domain.name()),
            r.begin_time,
            r.end_time
        )?;
    }
    Ok(())
}

/// Writes Dataset-E-shaped XID events.
pub fn write_xid_events<W: Write>(out: &mut W, rows: &[XidEvent]) -> io::Result<()> {
    let _obs = obs_export(rows.len());
    writeln!(
        out,
        "time,kind,node,slot,allocation_id,gpu_core_temp,temp_zscore"
    )?;
    for r in rows {
        writeln!(
            out,
            "{},{},{},{},{},{},{}",
            r.time,
            field(r.kind.name()),
            r.node.0,
            r.slot.0,
            r.allocation_id.map(|a| a.0.to_string()).unwrap_or_default(),
            fmt(r.gpu_core_temp),
            fmt(r.temp_zscore)
        )?;
    }
    Ok(())
}

/// Writes Dataset-8-shaped thermal rows (band counts flattened).
pub fn write_thermal<W: Write>(out: &mut W, rows: &[ThermalRow]) -> io::Result<()> {
    let _obs = obs_export(rows.len());
    writeln!(
        out,
        "timestamp,allocation_id,nodes_reporting,band0,band1,band2,band3,band4,\
         hot_gpus,gpu_core_mean,gpu_core_max,cpu_mean,mtw_return_c,tower_tons,chiller_tons"
    )?;
    for r in rows {
        let b = &r.gpu_band_counts;
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            r.window_start,
            r.allocation_id.map(|a| a.0.to_string()).unwrap_or_default(),
            r.nodes_reporting,
            b[0],
            b[1],
            b[2],
            b[3],
            b[4],
            r.hot_gpus.len(),
            fmt(r.gpu_core_mean),
            fmt(r.gpu_core_max),
            fmt(r.cpu_mean),
            fmt(r.cep.map(|c| c.mtw_return_c).unwrap_or(f64::NAN)),
            fmt(r.cep.map(|c| c.tower_tons).unwrap_or(f64::NAN)),
            fmt(r.cep.map(|c| c.chiller_tons).unwrap_or(f64::NAN)),
        )?;
    }
    Ok(())
}

/// Writes a one-row ingest-health report: throughput, delay, and the
/// fault-tolerance counters of the run.
pub fn write_ingest_health<W: Write>(out: &mut W, stats: &IngestStats) -> io::Result<()> {
    let _obs = obs_export(1);
    writeln!(
        out,
        "frames,metrics,mean_delay_s,max_delay_s,metrics_per_s,\
         accepted,reordered,duplicates,late_dropped,wrong_node,invalid,gap_windows"
    )?;
    let h = &stats.health;
    writeln!(
        out,
        "{},{},{},{},{},{},{},{},{},{},{},{}",
        stats.frames,
        stats.metrics(),
        fmt(stats.mean_delay_s()),
        fmt(stats.max_delay_s),
        fmt(stats.metrics_per_second()),
        h.accepted,
        h.reordered,
        h.duplicates,
        h.late_dropped,
        h.wrong_node,
        h.invalid,
        h.gap_windows,
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::ids::{AllocationId, GpuSlot, NodeId};
    use crate::records::{ScienceDomain, XidErrorKind};

    #[test]
    fn cluster_power_csv_shape() {
        let rows = vec![ClusterPowerRow {
            window_start: 10.0,
            count_inp: 2,
            sum_inp: 3000.0,
            mean_inp: 1500.0,
            max_inp: 2000.0,
        }];
        let mut buf = Vec::new();
        write_cluster_power(&mut buf, &rows).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "timestamp,count_inp,sum_inp,mean_inp,max_inp");
        assert_eq!(lines[1], "10,2,3000,1500,2000");
    }

    #[test]
    fn nan_becomes_empty_cell() {
        let rows = vec![ClusterPowerRow {
            window_start: 0.0,
            count_inp: 0,
            sum_inp: f64::NAN,
            mean_inp: f64::NAN,
            max_inp: f64::NAN,
        }];
        let mut buf = Vec::new();
        write_cluster_power(&mut buf, &rows).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.lines().nth(1).unwrap().ends_with("0,,,"));
    }

    #[test]
    fn job_records_escape_fields() {
        let rows = vec![JobRecord {
            allocation_id: AllocationId(7),
            class: 5,
            node_count: 4,
            project: "ODD,\"NAME\"".into(),
            domain: ScienceDomain::AiMl,
            begin_time: 1.0,
            end_time: 2.0,
        }];
        let mut buf = Vec::new();
        write_job_records(&mut buf, &rows).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("\"ODD,\"\"NAME\"\"\""), "csv quoting: {s}");
        assert!(s.contains("AI/ML"));
    }

    #[test]
    fn xid_event_optional_allocation() {
        let rows = vec![XidEvent {
            kind: XidErrorKind::DoubleBitError,
            node: NodeId(3),
            slot: GpuSlot(4),
            time: 99.0,
            allocation_id: None,
            gpu_core_temp: 40.5,
            temp_zscore: -0.5,
        }];
        let mut buf = Vec::new();
        write_xid_events(&mut buf, &rows).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s
            .lines()
            .nth(1)
            .unwrap()
            .contains("99,Double-bit error,3,4,,40.5,-0.5"));
    }

    #[test]
    fn ingest_health_csv_shape() {
        use crate::ingest::IngestHealth;
        let stats = IngestStats {
            frames: 4,
            total_delay_s: 4.0,
            max_delay_s: 2.0,
            t_first: 0.0,
            t_last: 2.0,
            health: IngestHealth {
                accepted: 3,
                reordered: 1,
                duplicates: 1,
                late_dropped: 0,
                wrong_node: 0,
                invalid: 0,
                gap_windows: 2,
            },
        };
        let mut buf = Vec::new();
        write_ingest_health(&mut buf, &stats).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("frames,metrics,"));
        assert!(lines[0].ends_with("gap_windows"));
        // 4 frames x 25 metrics over a 2 s span.
        assert_eq!(lines[1], "4,100,1,2,50,3,1,1,0,0,0,2");
    }

    #[test]
    fn thermal_row_with_and_without_cep() {
        use crate::records::CepRecord;
        let base = ThermalRow {
            window_start: 0.0,
            allocation_id: Some(AllocationId(1)),
            nodes_reporting: 2,
            gpu_band_counts: [1, 2, 3, 4, 5],
            hot_gpus: vec![(NodeId(0), GpuSlot(0))],
            gpu_core_mean: 40.0,
            gpu_core_max: 61.0,
            cpu_mean: 33.0,
            cpu_max: 35.0,
            cep: Some(CepRecord {
                time: 0.0,
                mtw_supply_c: 21.0,
                mtw_return_c: 29.0,
                tower_tons: 100.0,
                chiller_tons: 5.0,
                wet_bulb_c: 15.0,
                facility_power_w: 1.0,
                it_power_w: 1.0,
            }),
        };
        let mut no_cep = base.clone();
        no_cep.cep = None;
        let mut buf = Vec::new();
        write_thermal(&mut buf, &[base, no_cep]).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].contains("1,2,3,4,5"));
        assert!(lines[1].ends_with("29,100,5"));
        assert!(lines[2].ends_with(",,,"), "missing CEP = empty cells");
    }
}
