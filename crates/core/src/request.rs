//! Request-scoped characterization — the service-side entry point.
//!
//! `afp serve` answers "characterize this circuit on target X" without
//! running the full flow (no subset selection, no model training, no
//! estimation). This module provides that entry: [`RequestConfig`] pins
//! the exact configuration the flow itself would use for ground-truth
//! characterization, [`characterize_request`] runs one circuit through
//! the shared cache on a [`Runtime`], and [`request_report`] renders the
//! result as a schema-stable [`RunReport`].
//!
//! Determinism contract: the report is a pure function of the
//! [`CircuitRecord`] (the record's library `id` is deliberately
//! excluded), and the record itself is a pure function of `(circuit,
//! config)` — so a served response is byte-identical to what the
//! equivalent `afp flow` characterization of the same circuit would
//! report, no matter whether it came from a cold computation, the warm
//! cache, or a coalesced in-flight join.

use afp_circuits::ArithCircuit;
use afp_obs::{RunReport, Section, Value};
use afp_runtime::{Key128, Runtime};

use crate::cache::CharacterizationCache;
use crate::flow::FlowConfig;
use crate::record::{assemble_record, characterize_batch, CharacterizeScratch, CircuitRecord};

/// The characterization configuration of one request — exactly the
/// pieces of a [`FlowConfig`] that affect a single record.
#[derive(Clone, Debug)]
pub struct RequestConfig {
    /// ASIC synthesis model configuration.
    pub asic: afp_asic::AsicConfig,
    /// FPGA synthesis model configuration (carries the target profile).
    pub fpga: afp_fpga::FpgaConfig,
    /// Behavioural error-analysis configuration.
    pub error: afp_error::ErrorConfig,
}

impl Default for RequestConfig {
    fn default() -> RequestConfig {
        RequestConfig::for_target_config(FlowConfig::default().fpga)
    }
}

impl RequestConfig {
    /// The configuration `afp flow` would use against `fpga` — ASIC and
    /// error settings at flow defaults, so served records match flow
    /// records bit for bit.
    pub fn for_target_config(fpga: afp_fpga::FpgaConfig) -> RequestConfig {
        let flow = FlowConfig::default();
        RequestConfig {
            asic: flow.asic,
            fpga,
            error: flow.error,
        }
    }

    /// The content key of this request for `circuit` — identical to the
    /// cache key the flow would use, so serve, flow, and the disk tier
    /// all agree on what "the same request" means.
    pub fn key(&self, circuit: &ArithCircuit) -> Key128 {
        CharacterizationCache::key(circuit, &self.asic, &self.fpga, &self.error)
    }
}

/// Characterize one circuit under `config`, through `cache` when given.
///
/// This is the flow's own characterization primitive scoped to a single
/// record, with caller-owned scratch state (warm mapper and ASIC
/// buffers). On a cache hit the three reports are reused and no synthesis
/// or error analysis runs (only the cheap netlist statistics are
/// recomputed); on a miss they are computed as a batch of one, counted on
/// the runtime's counters, and inserted. The record's `id` is fixed to 0
/// — request-scoped records have no library position.
pub fn characterize_request(
    circuit: &ArithCircuit,
    config: &RequestConfig,
    rt: &Runtime,
    cache: Option<&CharacterizationCache>,
    scratch: &mut CharacterizeScratch,
) -> CircuitRecord {
    let key = cache.map(|_| config.key(circuit));
    let cached = key.and_then(|k| cache.and_then(|c| c.get(k, rt.counters())));
    let reports = cached.unwrap_or_else(|| {
        let (asic, fpga, error) = (&config.asic, &config.fpga, &config.error);
        let computed = characterize_batch(&[circuit], asic, fpga, error, rt, scratch)[0];
        if let (Some(cache), Some(key)) = (cache, key) {
            cache.insert_counted(key, computed, rt.counters());
        }
        computed
    });
    let stats = afp_netlist::analyze::stats(circuit.netlist());
    assemble_record(0, circuit, &config.fpga, stats, reports)
}

/// Render one record as the per-request [`RunReport`].
///
/// Sections, in order: `request` (circuit identity + target), `asic`,
/// `error`, `fpga`. Field order is fixed by the builder, and the
/// library `id` is excluded, so the JSON is byte-stable for a given
/// `(circuit, config)` regardless of how the record was obtained.
pub fn request_report(record: &CircuitRecord) -> RunReport {
    let mut report = RunReport::new();
    report.push_section(
        Section::new("request")
            .field("name", Value::Str(record.name.clone()))
            .field("kind", Value::Str(record.kind.mnemonic().to_string()))
            .field("width", Value::UInt(record.width as u64))
            .field("target", Value::Str(record.target.clone()))
            .field("gates", Value::UInt(record.stats.gates as u64))
            .field("depth", Value::UInt(record.stats.depth as u64)),
    );
    report.push_section(
        Section::new("asic")
            .field("area_um2", Value::Num(record.asic.area_um2))
            .field("delay_ns", Value::Num(record.asic.delay_ns))
            .field("power_mw", Value::Num(record.asic.power_mw))
            .field("cells", Value::UInt(record.asic.cells as u64)),
    );
    report.push_section(
        Section::new("error")
            .field("samples", Value::UInt(record.error.samples))
            .field("exhaustive", Value::Bool(record.error.exhaustive))
            .field("med", Value::Num(record.error.med))
            .field("mae", Value::Num(record.error.mae))
            .field("wce", Value::UInt(record.error.wce))
            .field("error_prob", Value::Num(record.error.error_prob)),
    );
    report.push_section(
        Section::new("fpga")
            .field("luts", Value::UInt(record.fpga.luts as u64))
            .field("slices", Value::UInt(record.fpga.slices as u64))
            .field("depth_levels", Value::UInt(record.fpga.depth_levels as u64))
            .field("delay_ns", Value::Num(record.fpga.delay_ns))
            .field("power_mw", Value::Num(record.fpga.power_mw)),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::characterize;
    use afp_circuits::from_spec_ref;

    #[test]
    fn request_matches_flow_characterization_bit_for_bit() {
        let circuit = from_spec_ref("mul8:trunc:3").unwrap();
        let config = RequestConfig::default();
        let rt = Runtime::serial();
        let mut scratch = CharacterizeScratch::default();
        let via_request = characterize_request(&circuit, &config, &rt, None, &mut scratch);
        let via_flow_path = characterize(0, &circuit, &config.asic, &config.fpga, &config.error);
        assert_eq!(
            request_report(&via_request).to_json(),
            request_report(&via_flow_path).to_json()
        );
    }

    #[test]
    fn report_is_independent_of_cache_state_and_id() {
        let circuit = from_spec_ref("add8:loa:2").unwrap();
        let config = RequestConfig::default();
        let rt = Runtime::serial();
        let cache = CharacterizationCache::in_memory();
        let mut scratch = CharacterizeScratch::default();
        let cold = characterize_request(&circuit, &config, &rt, Some(&cache), &mut scratch);
        let warm = characterize_request(&circuit, &config, &rt, Some(&cache), &mut scratch);
        // Same request through an id-shifted flow-style call.
        let other_id = characterize(17, &circuit, &config.asic, &config.fpga, &config.error);
        let json = request_report(&cold).to_json();
        assert_eq!(json, request_report(&warm).to_json());
        assert_eq!(json, request_report(&other_id).to_json());
        assert_eq!(rt.snapshot().cache_hits, 1);
    }

    #[test]
    fn report_schema_is_stable() {
        let circuit = from_spec_ref("add8:rca").unwrap();
        let config = RequestConfig::default();
        let record = characterize(0, &circuit, &config.asic, &config.fpga, &config.error);
        let json = request_report(&record).to_json();
        assert!(json.starts_with(
            "{\"version\":1,\"total_wall_s\":0.0,\"stages\":[],\
             \"request\":{\"name\":\"add8u_rca\",\"kind\":\"add\",\"width\":8,"
        ));
        for section in ["\"asic\":{", "\"error\":{", "\"fpga\":{"] {
            assert!(json.contains(section), "{json}");
        }
    }

    #[test]
    fn request_key_matches_the_cache_key() {
        let circuit = from_spec_ref("mul8:wallace").unwrap();
        let config = RequestConfig::default();
        assert_eq!(
            config.key(&circuit),
            CharacterizationCache::key(&circuit, &config.asic, &config.fpga, &config.error)
        );
    }
}
