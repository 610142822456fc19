//! Output checks: served payloads against direct execution, and a fixed
//! probe set against committed reference values.

use ndft::serve::{execute_payload, DftJob, JobOutcome, JobPayload};
use std::sync::Arc;

/// Largest absolute drift, eV, a probe may show from its committed value.
/// Reordering floating-point work moves these energies by ~1e-14 eV; a
/// change of the physics moves them by far more than this.
pub const PROBE_TOLERANCE_EV: f64 = 1e-6;

/// Committed reference values, one `name value` pair per line.
const REFERENCE: &str = include_str!("../probes.txt");

/// Re-executes each sampled job directly and returns a message for every
/// served payload that is not bit-identical to the direct result.
pub fn samples(samples: &[(DftJob, Arc<JobOutcome>)]) -> Vec<String> {
    let mut errors = Vec::new();
    for (job, served) in samples {
        match execute_payload(job) {
            // Debug formatting of f64 is shortest-round-trip, so equal
            // text means equal bits.
            Ok((direct, _)) if format!("{direct:?}") == format!("{:?}", served.payload) => {}
            Ok(_) => errors.push(format!(
                "{job}: served payload differs from direct execution"
            )),
            Err(e) => errors.push(format!("{job}: direct execution failed: {e}")),
        }
    }
    errors
}

/// The probe set: each probe's name and the value it measures now.
fn probe_values() -> Result<Vec<(&'static str, f64)>, String> {
    let run = |job: DftJob| {
        execute_payload(&job)
            .map(|(p, _)| p)
            .map_err(|e| e.to_string())
    };
    let gs = run(DftJob::GroundState {
        atoms: 8,
        bands: 4,
        max_iterations: 4,
    })?;
    let tda = run(DftJob::Spectrum {
        atoms: 16,
        full_casida: false,
    })?;
    let casida = run(DftJob::Spectrum {
        atoms: 16,
        full_casida: true,
    })?;
    let (JobPayload::GroundState(gs), JobPayload::Tda(tda), JobPayload::Casida(casida)) =
        (gs, tda, casida)
    else {
        return Err("probe payloads of the wrong kind".into());
    };
    Ok(vec![
        ("si8_ground_state_lowest_band_ev", gs.energies_ev[0]),
        ("si16_tda_lowest_excitation_ev", tda.energies_ev[0]),
        ("si16_casida_lowest_excitation_ev", casida.energies_ev[0]),
        (
            "si16_casida_tda_lowest_excitation_ev",
            casida.tda_energies_ev[0],
        ),
    ])
}

/// Parses the committed reference file.
fn reference() -> Vec<(&'static str, f64)> {
    REFERENCE
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, value) = l.split_once(' ').expect("`name value` line");
            (name, value.trim().parse().expect("numeric reference value"))
        })
        .collect()
}

/// Compares the probe set with the committed values; returns a message
/// per probe that drifted beyond [`PROBE_TOLERANCE_EV`] or is missing.
pub fn probes() -> Vec<String> {
    let measured = match probe_values() {
        Ok(m) => m,
        Err(e) => return vec![format!("probe run failed: {e}")],
    };
    let reference = reference();
    let mut errors = Vec::new();
    for (name, value) in &measured {
        match reference.iter().find(|(n, _)| n == name) {
            Some((_, want)) if (value - want).abs() <= PROBE_TOLERANCE_EV => {}
            Some((_, want)) => errors.push(format!("{name}: {value} eV, committed {want} eV")),
            None => errors.push(format!("{name}: no committed reference value")),
        }
    }
    if reference.len() != measured.len() {
        errors.push("reference file and probe set list different probes".into());
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_file_parses_and_names_every_probe() {
        let names: Vec<_> = reference().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), 4);
        assert!(names.contains(&"si8_ground_state_lowest_band_ev"));
    }

    #[test]
    fn probes_match_committed_values() {
        assert_eq!(probes(), Vec::<String>::new());
    }
}
