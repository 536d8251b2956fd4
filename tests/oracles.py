"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way: recursive basis functions,
Python triple loops over pixels and lights, direct window convolutions. None
of it shares vectorized code paths with the package, so agreement between the
two is meaningful evidence rather than a tautology.
"""

import math

import numpy as np

KNOTS = [0.0, 0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.0, 1.0]
DEGREE = 2
NUM_BASIS = 6


def basis_weights(t):
    """All six quadratic B-spline weights at t in [0, 1], by direct recursion."""

    def n(i, p, t):
        if p == 0:
            if KNOTS[i] <= t < KNOTS[i + 1]:
                return 1.0
            # close the final non-empty span on the right
            if t == 1.0 and KNOTS[i] < 1.0 and KNOTS[i + 1] == 1.0:
                return 1.0
            return 0.0
        left = 0.0
        den = KNOTS[i + p] - KNOTS[i]
        if den > 0.0:
            left = (t - KNOTS[i]) / den * n(i, p - 1, t)
        right = 0.0
        den = KNOTS[i + p + 1] - KNOTS[i + 1]
        if den > 0.0:
            right = (KNOTS[i + p + 1] - t) / den * n(i + 1, p - 1, t)
        return left + right

    return [n(i, DEGREE, t) for i in range(NUM_BASIS)]


def spline_value(controls, t):
    w = basis_weights(t)
    return sum(c * wi for c, wi in zip(controls, w))


def fit_controls(thetas, values):
    """Least-squares control points via explicitly assembled normal equations."""
    a = np.array([basis_weights(th / (math.pi / 2.0)) for th in thetas])
    coeffs, *_ = np.linalg.lstsq(a, np.asarray(values, dtype=float), rcond=None)
    return coeffs


def light_directions(height, width):
    """(direction, weight) per texel, row-major, by the loop definition."""
    out = []
    for h in range(height):
        for w in range(width):
            theta = (h + 0.5) / height * math.pi
            phi = (w + 0.5) / width * 2.0 * math.pi
            d = (
                math.cos(phi) * math.sin(theta),
                math.cos(theta),
                math.sin(phi) * math.sin(theta),
            )
            weight = math.sin(theta) * (math.pi / height) * (2.0 * math.pi / width)
            out.append((d, weight))
    return out


def material_coefficient(raw, k, s, t, theta_d):
    """Coefficient curve (k, s, t) of a flat 108-vector evaluated at theta_d."""
    controls = [raw[((k * 3 + s) * 2 + t) * 6 + j] for j in range(6)]
    return spline_value(controls, theta_d / (math.pi / 2.0))


def brdf_value(raw, theta_d, h_dot_n):
    """Per-channel reflectance: sum of three exp-power lobes."""
    base = min(max(h_dot_n, 1e-6), 1.0)
    out = []
    for k in range(3):
        acc = 0.0
        for s in range(3):
            a = material_coefficient(raw, k, s, 0, theta_d)
            b = material_coefficient(raw, k, s, 1, theta_d)
            acc += math.exp(a * math.pow(base, b)) - 1.0
        out.append(acc)
    return out


def half_angles(omega, view, n):
    """(theta_d, h . n) through the explicit half vector h; None when omega and view are opposed."""
    sx, sy, sz = omega[0] + view[0], omega[1] + view[1], omega[2] + view[2]
    s_norm = math.sqrt(sx * sx + sy * sy + sz * sz)
    if s_norm < 1e-8:
        return None
    hx, hy, hz = sx / s_norm, sy / s_norm, sz / s_norm
    h_dot_n = hx * n[0] + hy * n[1] + hz * n[2]
    d = omega[0] * hx + omega[1] * hy + omega[2] * hz
    return math.acos(min(max(d, 0.0), 1.0)), h_dot_n


def pinhole_view(camera, px, py):
    half_tan = math.tan(math.radians(camera.fov_y_degrees) / 2.0)
    w, h = camera.image_width, camera.image_height
    dx = (2.0 * (px + 0.5) / w - 1.0) * half_tan * (w / h)
    dy = (1.0 - 2.0 * (py + 0.5) / h) * half_tan
    dz = -1.0
    norm = math.sqrt(dx * dx + dy * dy + dz * dz)
    return (-dx / norm, -dy / norm, -dz / norm)


def render_scene(scene):
    """Triple-loop forward render; returns an (H, W, 3) array."""
    nm = scene.normal_map
    env = scene.env.radiance
    lights = light_directions(env.shape[0], env.shape[1])
    out = np.zeros((nm.height, nm.width, 3))
    for py in range(nm.height):
        for px in range(nm.width):
            if not nm.mask[py, px]:
                continue
            n = nm.normals[py, px]
            if scene.segmentation is None:
                raw = scene.materials[0].raw
            else:
                raw = scene.materials[scene.segmentation.region_ids[py, px]].raw
            if scene.camera.mode == "orthographic":
                view = (0.0, 0.0, 1.0)
            else:
                view = pinhole_view(scene.camera, px, py)
            for idx, (omega, weight) in enumerate(lights):
                ndl = n[0] * omega[0] + n[1] * omega[1] + n[2] * omega[2]
                cos_term = max(0.0, ndl)
                if cos_term == 0.0:
                    continue
                angles = half_angles(omega, view, n)
                if angles is None:
                    continue
                f = brdf_value(raw, *angles)
                ell = env[idx // env.shape[1], idx % env.shape[1]]
                for k in range(3):
                    out[py, px, k] += f[k] * ell[k] * cos_term * weight
    return out


def tone_value(c, exposure):
    return min(max(255.0 * math.pow(exposure * c, 1.0 / 2.2), 0.0), 255.0) if c > 0 else 0.0


def l2_value(a, b, mask=None):
    h, w = a.shape[:2]
    total, count = 0.0, 0
    for py in range(h):
        for px in range(w):
            if mask is not None and not mask[py, px]:
                continue
            d = a[py, px].astype(float) - b[py, px].astype(float)
            total += (d[0] ** 2 + d[1] ** 2 + d[2] ** 2) / 3.0
            count += 1
    return total / count if count else 0.0


def _gaussian_window(size=11, sigma=1.5):
    half = size // 2
    k = np.array(
        [
            [math.exp(-((x - half) ** 2 + (y - half) ** 2) / (2.0 * sigma * sigma)) for x in range(size)]
            for y in range(size)
        ]
    )
    return k / k.sum()


def ssim_value(a, b):
    """Direct per-window SSIM over channel-mean luminance."""
    lum_a = a.astype(float).mean(axis=2)
    lum_b = b.astype(float).mean(axis=2)
    kern = _gaussian_window()
    c1 = (0.01 * 255.0) ** 2
    c2 = (0.03 * 255.0) ** 2
    h, w = lum_a.shape
    scores = []
    for py in range(h - 10):
        for px in range(w - 10):
            wa = lum_a[py : py + 11, px : px + 11]
            wb = lum_b[py : py + 11, px : px + 11]
            mu_a = (kern * wa).sum()
            mu_b = (kern * wb).sum()
            var_a = (kern * wa * wa).sum() - mu_a * mu_a
            var_b = (kern * wb * wb).sum() - mu_b * mu_b
            cov = (kern * wa * wb).sum() - mu_a * mu_b
            num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
            den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
            scores.append(num / den)
    return float(np.mean(scores))
