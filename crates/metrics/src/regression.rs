//! Simple linear regression with a slope significance test — the tool
//! behind the paper's Figure 7 ("y=296.8x-246.2, P-value=4.67e-06" MSSIM vs
//! accuracy fits).

/// Result of an ordinary-least-squares fit `y = slope * x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination.
    pub r2: f64,
    /// Two-sided p-value of the slope (H0: slope = 0).
    pub p_value: f64,
    /// Number of points.
    pub n: usize,
}

/// Fits `y = a*x + b` by least squares. Requires at least 3 points for a
/// p-value (otherwise p = 1).
pub fn linear_regression(x: &[f64], y: &[f64]) -> LinearFit {
    assert_eq!(x.len(), y.len(), "length mismatch");
    let n = x.len();
    assert!(n >= 2, "need at least two points");
    let nf = n as f64;
    let mx = x.iter().sum::<f64>() / nf;
    let my = y.iter().sum::<f64>() / nf;
    let sxx: f64 = x.iter().map(|v| (v - mx) * (v - mx)).sum();
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let syy: f64 = y.iter().map(|v| (v - my) * (v - my)).sum();
    let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    let intercept = my - slope * mx;
    let ss_res: f64 = x
        .iter()
        .zip(y)
        .map(|(a, b)| {
            let e = b - (slope * a + intercept);
            e * e
        })
        .sum();
    let r2 = if syy == 0.0 { 1.0 } else { 1.0 - ss_res / syy };
    let p_value = if n < 3 || sxx == 0.0 {
        1.0
    } else {
        let df = nf - 2.0;
        let se = (ss_res / df / sxx).sqrt();
        if se == 0.0 {
            0.0
        } else {
            let t = (slope / se).abs();
            2.0 * student_t_sf(t, df)
        }
    };
    LinearFit { slope, intercept, r2, p_value, n }
}

/// Survival function (1 - CDF) of Student's t distribution at `t >= 0` with
/// `df` degrees of freedom, via the regularized incomplete beta function.
pub fn student_t_sf(t: f64, df: f64) -> f64 {
    if t <= 0.0 {
        return 0.5;
    }
    let x = df / (df + t * t);
    0.5 * inc_beta(0.5 * df, 0.5, x)
}

/// Regularized incomplete beta function I_x(a, b) via the continued
/// fraction (Numerical Recipes `betai`/`betacf`).
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * betacf(a, b, x) / a
    } else {
        1.0 - front * betacf(b, a, 1.0 - x) / b
    }
}

fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 200;
    const EPS: f64 = 3e-14;
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Lanczos approximation of ln Γ(x).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 6] = [
        76.18009172947146,
        -86.50532032941677,
        24.01409824083091,
        -1.231739572450155,
        0.1208650973866179e-2,
        -0.5395239384953e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000000000190015;
    for g in G {
        y += 1.0;
        ser += g / y;
    }
    -tmp + (2.5066282746310005 * ser / x).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_line_recovered() {
        let x: Vec<f64> = (0..20).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v - 7.0).collect();
        let fit = linear_regression(&x, &y);
        assert!((fit.slope - 3.0).abs() < 1e-10);
        assert!((fit.intercept + 7.0).abs() < 1e-10);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
        assert!(fit.p_value < 1e-10);
    }

    #[test]
    fn noisy_line_significant() {
        let x: Vec<f64> = (0..30).map(f64::from).collect();
        let mut s = 99u64;
        let y: Vec<f64> = x
            .iter()
            .map(|v| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let noise = ((s >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 4.0;
                2.0 * v + 1.0 + noise
            })
            .collect();
        let fit = linear_regression(&x, &y);
        assert!((fit.slope - 2.0).abs() < 0.2);
        assert!(fit.p_value < 1e-6);
        assert!(fit.r2 > 0.95);
    }

    #[test]
    fn no_relationship_insignificant() {
        // y alternates independently of x.
        let x: Vec<f64> = (0..24).map(f64::from).collect();
        let y: Vec<f64> = (0..24).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let fit = linear_regression(&x, &y);
        assert!(fit.p_value > 0.3, "p = {}", fit.p_value);
        assert!(fit.r2 < 0.2);
    }

    #[test]
    fn t_sf_known_values() {
        // t=2.086, df=20 -> one-sided p ~= 0.025.
        assert!((student_t_sf(2.086, 20.0) - 0.025).abs() < 0.002);
        // t=12.706, df=1 -> ~0.025.
        assert!((student_t_sf(12.706, 1.0) - 0.025).abs() < 0.002);
        // t=1.96, df large -> ~0.025.
        assert!((student_t_sf(1.96, 10_000.0) - 0.025).abs() < 0.002);
    }

    #[test]
    fn ln_gamma_known_values() {
        assert!((ln_gamma(1.0)).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-9); // Γ(5)=24
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-9);
    }
}
