//! Integration of the case study with the rest of the stack: components
//! built from flow-discovered pareto circuits drive the accelerator.

use approxfpgas_suite::autoax::search::AutoAx;
use approxfpgas_suite::autoax::{
    AcceleratorConfig, AutoAxConfig, Component, ComponentLibrary, GaussianAccelerator,
};
use approxfpgas_suite::circuits::{ArithKind, LibrarySource, LibrarySpec};
use approxfpgas_suite::flow::record::FpgaParam;
use approxfpgas_suite::flow::{Flow, FlowConfig};
use approxfpgas_suite::fpga::FpgaConfig;
use approxfpgas_suite::ml::MlModelId;

/// Build a component library from an actual flow run: the paper's pipeline
/// (ApproxFPGAs output feeds AutoAx-FPGA).
fn components_from_flow() -> ComponentLibrary {
    let fpga_cfg = FpgaConfig::default();
    // Pareto 8x8 multipliers from a small flow run.
    let library = LibrarySpec::new(ArithKind::Multiplier, 8, 120);
    let mult_outcome = Flow::new(FlowConfig {
        models: vec![MlModelId::Ml11, MlModelId::Ml14, MlModelId::Ml18],
        min_subset: 24,
        ..FlowConfig::default()
    })
    .run_source(&LibrarySource::Generated(library))
    .expect("generated libraries stream");
    let front = &mult_outcome.final_fronts[&FpgaParam::Area];
    // Keep usable quality points (MED below 2%) and cap at 9, as in the
    // paper; the exact anchor is on every front.
    let mut mult_ids: Vec<usize> = front
        .iter()
        .copied()
        .filter(|&i| mult_outcome.records[i].error.med < 0.02)
        .collect();
    mult_ids.truncate(9);
    assert!(mult_ids.len() >= 3, "front too small: {}", mult_ids.len());
    let mult_lib = approxfpgas_suite::circuits::build_library(&LibrarySpec::new(
        ArithKind::Multiplier,
        8,
        120,
    ));
    let mults: Vec<Component> = mult_ids
        .iter()
        .map(|&i| Component::new(mult_lib[i].clone(), &fpga_cfg))
        .collect();
    // Adders: the paper-default 8.
    let defaults = ComponentLibrary::paper_defaults(&fpga_cfg);
    ComponentLibrary::new(mults, defaults.adders().to_vec())
}

#[test]
fn flow_pareto_circuits_work_as_accelerator_components() {
    let library = components_from_flow();
    let accel = GaussianAccelerator::new(&library);
    let img = approxfpgas_suite::autoax::image::plasma(24, 7);
    let exact_ref = approxfpgas_suite::autoax::filter::exact_gaussian(&img);
    // Every single-component configuration must produce a plausible image.
    for choice in 0..library.multipliers().len() {
        let cfg = AcceleratorConfig {
            mult_slots: [choice; 9],
            adder_slots: [0; 5],
        };
        let out = accel.filter(&cfg, &img);
        let s = approxfpgas_suite::autoax::ssim::ssim(&out, &exact_ref);
        assert!(
            s > 0.3,
            "component {choice} ({}) destroys the image: SSIM {s}",
            library.multipliers()[choice].name()
        );
    }
}

#[test]
fn autoax_runs_on_flow_derived_components() {
    let library = components_from_flow();
    let runner = AutoAx::new(
        &library,
        AutoAxConfig {
            training_samples: 40,
            restarts: 4,
            steps: 8,
            random_budget: 10,
            image_size: 16,
            seed: 3,
        },
    );
    let outcome = runner.run();
    assert_eq!(outcome.autoax.len(), 3);
    for (_, designs) in &outcome.autoax {
        assert!(!designs.is_empty());
    }
}
