//! The `mapsd` daemon binary.
//!
//! ```text
//! MAPS_D_ADDR=127.0.0.1:9103 MAPS_D_WORKERS=4 mapsd
//! ```
//!
//! Configuration is entirely env-driven (`MAPS_D_*` for the daemon,
//! `MAPS_SOLVE_RETRIES` for the recovery ladder, `MAPS_TRACE`/`MAPS_METRICS*`
//! for telemetry export). The bound address is printed on startup — with
//! `MAPS_D_ADDR=127.0.0.1:0` that is how scripts discover the ephemeral
//! port. `POST /shutdown` drains and exits; telemetry is exported on the
//! way out.

use maps_mapsd::{serve, DaemonConfig};

fn main() -> std::io::Result<()> {
    // Tracing: MAPS_TRACE (and the other export knobs) imply recording.
    if std::env::var_os("MAPS_TRACE").is_some() {
        maps_obs::recorder::enable();
    }
    let _watchdog = maps_obs::watchdog::start_from_env();

    let config = DaemonConfig::from_env();
    let daemon = serve(config)?;
    // Parsed by scripts (check.sh) to discover the ephemeral port.
    println!("mapsd listening on {}", daemon.local_addr());

    daemon.wait_for_shutdown();
    eprintln!("mapsd: shutdown requested, draining");
    daemon.stop();

    match maps_obs::export_from_env() {
        Ok(paths) => {
            for p in paths {
                eprintln!("mapsd: exported {}", p.display());
            }
        }
        Err(e) => eprintln!("mapsd: telemetry export failed: {e}"),
    }
    // Drain the access-log writer so the JSONL on disk reconciles with the
    // requests served (MAPS_ACCESS_LOG; a no-op when unconfigured).
    if !maps_obs::flush_access_log(std::time::Duration::from_secs(5)) {
        eprintln!("mapsd: access log flush timed out");
    }
    Ok(())
}
