//! Compact textual spec refs naming one generator-built circuit.
//!
//! A spec ref is the request vocabulary of the characterization service:
//! `{kind}{width}:{family}[:{param}[:{param}]]`, e.g. `mul8:trunc:3` (an
//! 8-bit multiplier with the 3 lowest product columns truncated) or
//! `add8:loa:2` (a lower-part-OR adder with a 2-bit approximate part).
//! Every parameter is validated *before* the generator runs, so a
//! malformed or out-of-range ref returns an error instead of panicking —
//! mandatory for anything reachable from a network request.
//!
//! Families:
//!
//! | kind  | family                                  | params |
//! |-------|-----------------------------------------|--------|
//! | `add` | `rca` `cla` `csel` `cskip`              | —      |
//! | `add` | `loa` `trunc` `nocarry`                 | `k`    |
//! | `add` | `afa-sic` `afa-ign` `afa-cib`           | `k`    |
//! | `add` | `gear`                                  | `r:p`  |
//! | `mul` | `array` `wallace`                       | —      |
//! | `mul` | `trunc` `compressor`                    | `k`    |
//! | `mul` | `broken`                                | `vbl:hbl` |
//! | `mul` | `udm`                                   | hex mask |

use crate::arith::{ArithCircuit, ArithKind};
use crate::{adders, multipliers};

/// Parse one spec ref (see the module docs) into a circuit.
///
/// Errors (never panics) on unknown kinds/families, missing or trailing
/// parameters, and parameters outside the generator's documented domain.
pub fn from_spec_ref(spec: &str) -> Result<ArithCircuit, String> {
    let mut parts = spec.split(':');
    let head = parts.next().unwrap_or("");
    let (kind, width) = parse_head(head)?;
    let family = parts
        .next()
        .ok_or_else(|| format!("spec `{spec}` is missing a family (e.g. `mul8:trunc:3`)"))?;
    let params: Vec<&str> = parts.collect();

    let circuit = match kind {
        ArithKind::Adder => adder(spec, width, family, &params)?,
        ArithKind::Multiplier => multiplier(spec, width, family, &params)?,
    };
    Ok(circuit)
}

/// Split `mul8` / `add16` into kind and width.
fn parse_head(head: &str) -> Result<(ArithKind, usize), String> {
    for kind in [ArithKind::Adder, ArithKind::Multiplier] {
        if let Some(digits) = head.strip_prefix(kind.mnemonic()) {
            let width: usize = digits
                .parse()
                .map_err(|_| format!("bad width in spec head `{head}`"))?;
            kind.check_width(width).map_err(|e| e.to_string())?;
            return Ok((kind, width));
        }
    }
    Err(format!(
        "spec head `{head}` must be `add<width>` or `mul<width>`"
    ))
}

/// Expect exactly `n` parameters, each a decimal `usize`.
fn usize_params(spec: &str, params: &[&str], n: usize) -> Result<Vec<usize>, String> {
    if params.len() != n {
        return Err(format!(
            "spec `{spec}` takes {n} parameter(s), got {}",
            params.len()
        ));
    }
    params
        .iter()
        .map(|p| {
            p.parse::<usize>()
                .map_err(|_| format!("bad parameter `{p}` in spec `{spec}`"))
        })
        .collect()
}

fn adder(spec: &str, width: usize, family: &str, params: &[&str]) -> Result<ArithCircuit, String> {
    let exact = |build: fn(usize) -> ArithCircuit| {
        usize_params(spec, params, 0)?;
        Ok(build(width))
    };
    // `k`-parameterized families share the constraint `k <= width`.
    let approx_low = |build: fn(usize, usize) -> ArithCircuit| {
        let k = usize_params(spec, params, 1)?[0];
        if k > width {
            return Err(format!(
                "spec `{spec}`: approximate part {k} exceeds width {width}"
            ));
        }
        Ok(build(width, k))
    };
    match family {
        "rca" => exact(adders::ripple_carry),
        "cla" => exact(adders::carry_lookahead),
        "csel" => exact(adders::carry_select),
        "cskip" => exact(adders::carry_skip),
        "loa" => approx_low(adders::loa),
        "trunc" => approx_low(adders::truncated),
        "nocarry" => approx_low(adders::no_carry),
        "afa-sic" => approx_low(|w, k| adders::afa_substituted(w, k, adders::ApproxFa::SumIsCin)),
        "afa-ign" => approx_low(|w, k| adders::afa_substituted(w, k, adders::ApproxFa::IgnoreCin)),
        "afa-cib" => approx_low(|w, k| adders::afa_substituted(w, k, adders::ApproxFa::CarryIsB)),
        "gear" => {
            let p2 = usize_params(spec, params, 2)?;
            let (r, p) = (p2[0], p2[1]);
            if r < 1 || r > width || p > width - r {
                return Err(format!(
                    "spec `{spec}`: GeAr needs r >= 1 and r + p <= width ({width})"
                ));
            }
            Ok(adders::gear(width, r, p))
        }
        other => Err(format!("unknown adder family `{other}` in spec `{spec}`")),
    }
}

fn multiplier(
    spec: &str,
    width: usize,
    family: &str,
    params: &[&str],
) -> Result<ArithCircuit, String> {
    match family {
        "array" => {
            usize_params(spec, params, 0)?;
            Ok(multipliers::array_multiplier(width))
        }
        "wallace" => {
            usize_params(spec, params, 0)?;
            Ok(multipliers::wallace_multiplier(width))
        }
        "trunc" | "compressor" => {
            let k = usize_params(spec, params, 1)?[0];
            if k >= 2 * width {
                return Err(format!(
                    "spec `{spec}`: cannot drop {k} of {} product columns",
                    2 * width
                ));
            }
            Ok(match family {
                "trunc" => multipliers::truncated(width, k),
                _ => multipliers::approx_compressor(width, k),
            })
        }
        "broken" => {
            let p2 = usize_params(spec, params, 2)?;
            let (vbl, hbl) = (p2[0], p2[1]);
            if vbl >= 2 * width || hbl > width {
                return Err(format!(
                    "spec `{spec}`: break lines out of range (vbl < {}, hbl <= {width})",
                    2 * width
                ));
            }
            Ok(multipliers::broken_array(width, vbl, hbl))
        }
        "udm" => {
            if !width.is_multiple_of(2) {
                return Err(format!(
                    "spec `{spec}`: underdesigned multipliers need an even width"
                ));
            }
            let [mask] = params else {
                return Err(format!("spec `{spec}` takes 1 hex-mask parameter"));
            };
            let mask = u64::from_str_radix(mask, 16)
                .map_err(|_| format!("bad hex mask `{mask}` in spec `{spec}`"))?;
            Ok(multipliers::underdesigned(width, mask))
        }
        other => Err(format!(
            "unknown multiplier family `{other}` in spec `{spec}`"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_build_the_expected_circuits() {
        let cases = [
            ("add8:rca", "add8u_rca", 8),
            ("add8:cla", "add8u_cla", 8),
            ("add8:loa:2", "add8u_loa2", 8),
            ("add8:gear:2:2", "add8u_gear_r2p2", 8),
            ("mul8:array", "mul8u_arr", 8),
            ("mul8:trunc:3", "mul8u_trunc3", 8),
            ("mul8:broken:4:2", "mul8u_bam_v4h2", 8),
            ("mul8:udm:5", "mul8u_udm5", 8),
        ];
        for (spec, name, width) in cases {
            let c = from_spec_ref(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(c.name(), name, "{spec}");
            assert_eq!(c.width(), width, "{spec}");
        }
    }

    #[test]
    fn spec_output_matches_direct_generator_call() {
        let via_spec = from_spec_ref("mul8:trunc:3").unwrap();
        let direct = multipliers::truncated(8, 3);
        assert_eq!(via_spec.name(), direct.name());
        assert_eq!(
            via_spec.netlist().structural_hash(),
            direct.netlist().structural_hash()
        );
    }

    #[test]
    fn malformed_specs_error_instead_of_panicking() {
        for bad in [
            "",
            "mul8",
            "div8:x",
            "mulx:array",
            "mul99:array",
            "add0:rca",
            "add8:rca:1",
            "add8:loa",
            "add8:loa:9",
            "add8:loa:x",
            "add8:gear:0:1",
            "add8:gear:5:5",
            "add8:bogus",
            "mul8:trunc:16",
            "mul8:broken:16:2",
            "mul8:broken:1:9",
            "mul7:udm:3",
            "mul8:udm:zz",
            "mul8:bogus:1",
        ] {
            assert!(from_spec_ref(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn exactness_survives_the_parser() {
        let c = from_spec_ref("add8:rca").unwrap();
        assert_eq!(c.eval(13, 29), 42);
    }
}
