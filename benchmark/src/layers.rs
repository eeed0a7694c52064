//! One circuit's characterization, replayed from the layers' public
//! functions with a span around each call.
//!
//! This is the sequence `approxfpgas::record::characterize_with_scratch`
//! runs — cache key, cache lookup, and on a miss ASIC synthesis, error
//! analysis, LUT mapping and the cache insert, then netlist statistics —
//! so the explore and serve replays can time each layer without a span
//! inside the program. Both replays check their records against the
//! program's own results.

use afp_circuits::ArithCircuit;
use afp_runtime::{Counters, Runtime};
use approxfpgas::{CachedCharacterization, CharacterizationCache, CircuitRecord};

use crate::trace::Spans;

/// The three model configurations a record depends on.
#[derive(Clone, Copy)]
pub struct Configs<'a> {
    pub asic: &'a afp_asic::AsicConfig,
    pub fpga: &'a afp_fpga::FpgaConfig,
    pub error: &'a afp_error::ErrorConfig,
}

/// Per-thread replay state: the thread's spans plus the warm mapper and
/// ASIC buffers the program keeps per worker.
pub struct Worker<'t> {
    pub spans: Spans<'t>,
    mapper: afp_fpga::Mapper,
    asic: afp_asic::AsicScratch,
}

impl<'t> Worker<'t> {
    pub fn new(spans: Spans<'t>) -> Worker<'t> {
        Worker {
            spans,
            mapper: afp_fpga::Mapper::default(),
            asic: afp_asic::AsicScratch::new(),
        }
    }

    /// Characterize `circuit` as library entry `id` through `cache`.
    pub fn characterize(
        &mut self,
        id: usize,
        circuit: &ArithCircuit,
        cfg: Configs<'_>,
        rt: &Runtime,
        cache: &CharacterizationCache,
    ) -> CircuitRecord {
        let item = id as u64;
        let netlist = circuit.netlist();
        self.spans.open("core.characterize", item);
        let key = self.spans.time("core.cache_key", item, || {
            CharacterizationCache::key(circuit, cfg.asic, cfg.fpga, cfg.error)
        });
        let cached = self
            .spans
            .time("core.cache_get", item, || cache.get(key, rt.counters()));
        let reports = match cached {
            Some(hit) => hit,
            None => {
                let counters = rt.counters();
                Counters::add(&counters.asic_synths, 1);
                Counters::add(&counters.fpga_synths, 1);
                Counters::add(&counters.error_analyses, 1);
                let asic_scratch = &mut self.asic;
                let asic = self.spans.time("asic.synth", item, || {
                    afp_asic::synthesize_asic_with(netlist, cfg.asic, asic_scratch)
                });
                let error = self.spans.time("error.analyze", item, || {
                    afp_error::analyze_with(circuit, cfg.error, rt)
                });
                let mapper = &mut self.mapper;
                let fpga = self
                    .spans
                    .time("fpga.map", item, || mapper.synthesize(netlist, cfg.fpga));
                let st = self.mapper.take_stats();
                Counters::add(&counters.cuts_merged, st.cuts_merged);
                Counters::add(&counters.cuts_sig_rejected, st.cuts_sig_rejected);
                Counters::add(&counters.cuts_dominance_pruned, st.cuts_dominance_pruned);
                Counters::add(&counters.mapper_reuses, st.mapper_reuses);
                let computed = CachedCharacterization { asic, error, fpga };
                self.spans
                    .time("store.cache_insert", item, || cache.insert(key, computed));
                computed
            }
        };
        let stats = self.spans.time("netlist.stats", item, || {
            afp_netlist::analyze::stats(netlist)
        });
        self.spans.close();
        CircuitRecord {
            id,
            name: circuit.name().to_string(),
            kind: circuit.kind(),
            width: circuit.width(),
            target: cfg.fpga.target.clone(),
            stats,
            asic: reports.asic,
            error: reports.error,
            fpga: reports.fpga,
        }
    }
}

/// Whether two records agree in every field.
pub fn same_record(a: &CircuitRecord, b: &CircuitRecord) -> bool {
    a.id == b.id
        && a.name == b.name
        && a.kind == b.kind
        && a.width == b.width
        && a.target == b.target
        && a.stats == b.stats
        && a.asic == b.asic
        && a.error == b.error
        && a.fpga == b.fpga
}
