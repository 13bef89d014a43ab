//! The §10 compile path: plan (paper-only or tournament) → IR lower and
//! optimize → per target legalize, schedule and emit. Also the checker
//! that interprets every scheduled program, and the Table 1.1 pricing
//! behind `gen_code_cycles`.

use magicdiv::plan::{DivisibilityPlan, FloorPlan, SdivPlan, UdivPlan, UremPlan};
use magicdiv::{select_udiv, select_urem, ArithmeticCertifier, DivPlan, OpCountScorer, Strategy};
use magicdiv_codegen::{emit_assembly, Target};
use magicdiv_ir::{
    legalize, lower_divisibility, lower_floor_div, lower_sdiv, lower_udiv, lower_urem, mask,
    optimize, schedule, sign_extend, Builder, Program, ScheduleWeights, TargetCaps,
};
use magicdiv_simcpu::{cycles_for_program, TimingModel};

use crate::inputs::{CompileRequest, Shape};
use crate::spans::Recorder;

/// The output of one compile request.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Instructions of the optimized IR program, before legalization.
    pub ir_insts: usize,
    /// The scheduled program of each target, paired with the
    /// instruction count of its emitted listing.
    pub programs: Vec<(Program, usize)>,
    /// For a tournament request: whether a non-paper candidate won.
    pub non_paper_win: Option<bool>,
}

/// The targets that emit code at `width`: every target at 32 bits, the
/// 64-bit Alpha alone at 64.
pub fn targets_for(width: u32) -> &'static [Target] {
    const ALL: [Target; 5] = [
        Target::Alpha,
        Target::Mips,
        Target::Power,
        Target::Sparc,
        Target::X86,
    ];
    if width == 32 {
        &ALL
    } else {
        &ALL[..1]
    }
}

/// POWER is legalized for the RIOS I (signed multiply-high only, per the
/// Table 1.1 footnote); every other target has the full Table 3.1 set.
fn caps(target: Target) -> TargetCaps {
    if target == Target::Power {
        TargetCaps::POWER_RIOS
    } else {
        TargetCaps::FULL
    }
}

/// Span name of a paper-only plan build at `width`.
pub fn plan_span(width: u32) -> &'static str {
    if width == 32 {
        "plan.build.w32"
    } else {
        "plan.build.w64"
    }
}

/// Compiles `req`, with a span around each layer call.
///
/// # Panics
///
/// Panics when the request's divisor is zero or does not fit its width
/// (the generator never draws one).
pub fn compile(req: &CompileRequest, rec: &mut Recorder) -> Compiled {
    let (w, d) = (req.width, req.d);
    let planned = "divisor drawn nonzero and within its width";
    let mut non_paper_win = None;
    let plan: DivPlan = if req.tournament {
        rec.open("tournament.select");
        let (plan, t) = match req.shape {
            Shape::Urem => {
                let s = select_urem(
                    d as u128,
                    w,
                    Strategy::Tournament,
                    &OpCountScorer,
                    &ArithmeticCertifier,
                )
                .expect(planned);
                (DivPlan::Urem(s.plan), s.tournament)
            }
            _ => {
                let s = select_udiv(
                    d as u128,
                    w,
                    Strategy::Tournament,
                    &OpCountScorer,
                    &ArithmeticCertifier,
                )
                .expect(planned);
                (DivPlan::Unsigned(s.plan), s.tournament)
            }
        };
        rec.close();
        non_paper_win = t.map(|t| !t.winner_is_paper());
        plan
    } else {
        rec.open(plan_span(w));
        let plan = match req.shape {
            Shape::Udiv => DivPlan::Unsigned(UdivPlan::new(d as u128, w).expect(planned)),
            Shape::Sdiv => DivPlan::Signed(SdivPlan::new(d, w).expect(planned)),
            Shape::Floor => DivPlan::Floor(FloorPlan::new(d, w).expect(planned)),
            Shape::Urem => DivPlan::Urem(UremPlan::new(d as u128, w).expect(planned)),
            Shape::Divisibility => {
                DivPlan::Divisibility(DivisibilityPlan::new(d as u128, w).expect(planned))
            }
        };
        rec.close();
        plan
    };
    rec.open("ir.lower_opt");
    let mut b = Builder::new(w, 1);
    let n = b.arg(0);
    let q = match &plan {
        DivPlan::Unsigned(p) => lower_udiv(&mut b, n, p),
        DivPlan::Signed(p) => lower_sdiv(&mut b, n, p),
        DivPlan::Floor(p) => lower_floor_div(&mut b, n, p),
        DivPlan::Urem(p) => lower_urem(&mut b, n, p),
        DivPlan::Divisibility(p) => lower_divisibility(&mut b, n, p),
        _ => unreachable!("no request has this shape"),
    };
    let prog = optimize(&b.finish([q]));
    rec.close();
    let programs = targets_for(w)
        .iter()
        .map(|&target| {
            rec.open("ir.legalize");
            let legal = legalize(&prog, caps(target));
            rec.close();
            rec.open("ir.schedule");
            let sched = schedule(&legal, ScheduleWeights::default());
            rec.close();
            rec.open("codegen.emit");
            let asm = emit_assembly(&sched, target, "f");
            rec.close();
            let insts = asm.instruction_count();
            (sched, insts)
        })
        .collect();
    Compiled {
        ir_insts: prog.insts().len(),
        programs,
        non_paper_win,
    }
}

/// What `req`'s program must return for dividend `n` (a `width`-bit
/// pattern), computed with native division.
pub fn expected(req: &CompileRequest, n: u64) -> u64 {
    let w = req.width;
    let m = mask(w);
    let n = n & m;
    let d = req.d;
    match req.shape {
        Shape::Udiv => n / d as u64,
        Shape::Urem => n % d as u64,
        Shape::Divisibility => u64::from(n.is_multiple_of(d as u64)),
        Shape::Sdiv | Shape::Floor => {
            let sn = i128::from(sign_extend(n, w));
            let q = if req.shape == Shape::Sdiv {
                sn / d
            } else {
                sn.div_euclid(d) - i128::from(d < 0 && sn.rem_euclid(d) != 0)
            };
            (q as u64) & m
        }
    }
}

/// The dividends each compiled program is checked on: 0, 1, d−1, d,
/// d+1, the unsigned and signed extremes, and the seeded `extra` ones.
pub fn check_dividends(req: &CompileRequest, extra: &[u64]) -> Vec<u64> {
    let m = mask(req.width);
    let d = req.d as u64;
    let mut v = vec![
        0,
        1,
        d.wrapping_sub(1),
        d,
        d.wrapping_add(1),
        m,
        m >> 1,
        (m >> 1) + 1,
    ];
    v.extend_from_slice(extra);
    v.into_iter().map(|n| n & m).collect()
}

/// Interprets every scheduled program of `c` on `dividends`; returns the
/// number of wrong or failed evaluations.
pub fn check(req: &CompileRequest, c: &Compiled, dividends: &[u64]) -> u64 {
    let mut wrong = 0;
    for (prog, _) in &c.programs {
        for &n in dividends {
            if prog.eval1(&[n]) != Ok(expected(req, n)) {
                wrong += 1;
            }
        }
    }
    wrong
}

/// Running totals behind `gen_code_cycles` and `gen_code_insts`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CodeStats {
    /// Programs priced.
    pub programs: u64,
    /// Sum of `ln(cycles)` over programs × models.
    pub ln_cycles: f64,
    /// Programs × models priced.
    pub priced: u64,
    /// Sum of emitted listing instruction counts.
    pub listing_insts: u64,
    /// Sum of optimized IR instruction counts, one per compile.
    pub ir_insts: u64,
    /// Compiles.
    pub compiles: u64,
    /// Tournaments run.
    pub tournaments: u64,
    /// Tournaments a non-paper candidate won.
    pub non_paper_wins: u64,
}

impl CodeStats {
    /// Adds one compile, pricing each program on every model.
    pub fn add(&mut self, c: &Compiled, models: &[TimingModel]) {
        self.compiles += 1;
        self.ir_insts += c.ir_insts as u64;
        if let Some(won) = c.non_paper_win {
            self.tournaments += 1;
            self.non_paper_wins += u64::from(won);
        }
        for (prog, insts) in &c.programs {
            self.programs += 1;
            self.listing_insts += *insts as u64;
            for m in models {
                // A program with no instructions (never drawn: d >= 2)
                // would cost 0 cycles; count it as 1 to keep the log finite.
                self.ln_cycles += (cycles_for_program(prog, m).max(1) as f64).ln();
                self.priced += 1;
            }
        }
    }

    /// Geometric-mean cycles over programs × models.
    pub fn gen_code_cycles(&self) -> f64 {
        (self.ln_cycles / self.priced.max(1) as f64).exp()
    }

    /// Mean instructions per emitted listing.
    pub fn gen_code_insts(&self) -> f64 {
        self.listing_insts as f64 / self.programs.max(1) as f64
    }

    /// Mean optimized IR instructions per compile.
    pub fn ir_insts(&self) -> f64 {
        self.ir_insts as f64 / self.compiles.max(1) as f64
    }

    /// Share of tournaments a non-paper candidate won (0 with none run).
    pub fn non_paper_win_ratio(&self) -> f64 {
        self.non_paper_wins as f64 / self.tournaments.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Rng;
    use magicdiv_simcpu::table_1_1;

    #[test]
    fn every_shape_compiles_checks_and_prices() {
        let mut rng = Rng::stream(3, "test");
        let mut rec = Recorder::new(true);
        let mut stats = CodeStats::default();
        let models = table_1_1();
        for i in 0..200 {
            let req = CompileRequest::nth(&mut rng, i);
            let c = compile(&req, &mut rec);
            assert_eq!(c.programs.len(), targets_for(req.width).len());
            let ns = check_dividends(&req, &[12345, u64::MAX - 7]);
            assert_eq!(check(&req, &c, &ns), 0, "{req:?}");
            stats.add(&c, &models);
        }
        assert!(stats.gen_code_cycles() > 1.0);
        assert!(stats.gen_code_insts() > 1.0);
        assert!(rec.tally("codegen.emit").spans >= 200);
    }

    #[test]
    fn the_checker_catches_a_wrong_program() {
        let req = CompileRequest {
            shape: Shape::Udiv,
            width: 32,
            d: 7,
            tournament: false,
        };
        let mut c = compile(&req, &mut Recorder::new(false));
        let wrong = compile(&CompileRequest { d: 9, ..req }, &mut Recorder::new(false));
        c.programs[0] = wrong.programs[0].clone();
        assert!(check(&req, &c, &check_dividends(&req, &[])) > 0);
    }

    #[test]
    fn floor_reference_rounds_toward_minus_infinity() {
        let req = CompileRequest {
            shape: Shape::Floor,
            width: 32,
            d: -3,
            tournament: false,
        };
        assert_eq!(expected(&req, 7), (-3i64 as u64) & mask(32));
        assert_eq!(expected(&req, (-7i64 as u64) & mask(32)), 2);
        assert_eq!(expected(&req, 6), (-2i64 as u64) & mask(32));
    }
}
