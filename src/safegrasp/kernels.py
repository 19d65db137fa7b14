"""Hot numeric kernels.

The FK kernel is the DH chain in scalar form and the IK kernel iterates on
it: floats, tuples and lists with ``math`` functions, no numpy calls.  They
take the arm's precomputed ``dh_rows``, its ``joint_limits`` and tuples of
floats (see :class:`safegrasp.kinematics.ArmModel`).  ``quantile_huber_loss_grad``
is an exact sort/prefix-sum form (sorted target rows, a vectorised binary
search for the region boundaries of each prediction, closed-form sums per
region) that never builds the (critic, sample, quantile, atom) array; the
tests cross-check it against the pairwise scalar loops.

Each kernel has one implementation, so its results do not depend on what
else is installed.
"""

from __future__ import annotations

import math

import numpy as np


def float_tuple(value, n: int) -> tuple:
    """An ``n``-vector in the kernels' argument form, a tuple of floats.

    A tuple of ``n`` values is taken as that form already: the env keeps its
    joints and points so.  Anything else, a tuple of another length
    included, goes through numpy, which raises ``ValueError`` unless it holds
    exactly ``n`` values.
    """
    if type(value) is tuple and len(value) == n:
        return value
    return tuple(np.asarray(value, dtype=np.float64).reshape(n).tolist())


def norm3(x: float, y: float, z: float) -> float:
    """The length of ``(x, y, z)`` as ``np.linalg.norm`` rounds it:
    ``sqrt(v.dot(v))`` on a float64 3-vector.

    Not the scalar ``sqrt(x*x + y*y + z*z)``: numpy's dot rounds some vectors
    differently in the last bit, and these lengths reach the step record or
    decide a scripted action.
    """
    v = np.array((x, y, z))
    return math.sqrt(v.dot(v))


# ---------------------------------------------------------------------------
# forward kinematics: standard DH chain in scalar form
# ---------------------------------------------------------------------------

def fk_frames(dh, q):
    """Compose the DH chain of a 6-joint serial arm, one scalar at a time.

    ``dh`` holds six ``(a, d, cos alpha, sin alpha, theta_offset)`` rows
    (:attr:`ArmModel.dh_rows <safegrasp.kinematics.ArmModel>`) and ``q`` six
    joint angles.  The running rotation ``r`` and origin ``p`` are
    float locals; each joint applies ``T <- T @ A_i`` with the standard DH
    link transform ``A_i`` written out element by element.  Returns the
    ``(origins, zaxes)`` pair: the per-frame origins and joint z axes as
    lists of seven ``(x, y, z)`` tuples; index 0 is the base frame.
    """
    r00, r01, r02 = 1.0, 0.0, 0.0
    r10, r11, r12 = 0.0, 1.0, 0.0
    r20, r21, r22 = 0.0, 0.0, 1.0
    px, py, pz = 0.0, 0.0, 0.0
    origins = [(0.0, 0.0, 0.0)]
    zaxes = [(0.0, 0.0, 1.0)]
    for (a, d, ca, sa, offset), qi in zip(dh, q):
        theta = qi + offset
        ct = math.cos(theta)
        st = math.sin(theta)
        # A_i = [[ct, -st ca, st sa, a ct], [st, ct ca, -ct sa, a st],
        #        [0, sa, ca, d], [0, 0, 0, 1]]
        b01 = -st * ca
        b11 = ct * ca
        b02 = st * sa
        b12 = -ct * sa
        b03 = a * ct
        b13 = a * st
        px = r00 * b03 + r01 * b13 + r02 * d + px
        py = r10 * b03 + r11 * b13 + r12 * d + py
        pz = r20 * b03 + r21 * b13 + r22 * d + pz
        r00, r01, r02 = (
            r00 * ct + r01 * st,
            r00 * b01 + r01 * b11 + r02 * sa,
            r00 * b02 + r01 * b12 + r02 * ca,
        )
        r10, r11, r12 = (
            r10 * ct + r11 * st,
            r10 * b01 + r11 * b11 + r12 * sa,
            r10 * b02 + r11 * b12 + r12 * ca,
        )
        r20, r21, r22 = (
            r20 * ct + r21 * st,
            r20 * b01 + r21 * b11 + r22 * sa,
            r20 * b02 + r21 * b12 + r22 * ca,
        )
        origins.append((px, py, pz))
        zaxes.append((r02, r12, r22))
    return origins, zaxes


# ---------------------------------------------------------------------------
# inverse kinematics: damped least squares on position
# ---------------------------------------------------------------------------

def ik_dls(
    dh, limits, q_seed, target, damping, tolerance, max_iterations, seed_frames=None
):
    """Position-only damped-least-squares IK, iterates projected to limits.

    ``dh`` and ``limits`` are the arm's ``dh_rows`` and ``joint_limits``
    (six ``(lower, upper)`` pairs); ``q_seed`` and ``target`` are tuples of
    six and three floats.  ``seed_frames`` is the ``(origins, zaxes)`` pair
    ``fk_frames`` gives for ``q_seed``, when the caller has it: iteration 0
    then reads it instead of calling ``fk_frames`` again.  Returns
    ``(q_best, best_residual, iterations, clamped, converged, best_frames)``
    where ``q_best`` is a list of six floats, ``clamped`` is 1 when the best
    iterate had a joint pinned at a limit, and ``best_frames`` the best
    iterate's ``(origins, zaxes)`` as ``fk_frames`` gave them, so its tool
    origin is ``best_frames[0][6]``.
    """
    tx, ty, tz = target
    q = list(q_seed)
    best_q = q.copy()
    best_frames = None
    best_res = 1.0e300
    lam2 = damping * damping
    iterations = 0
    converged = 0
    columns = [(0.0, 0.0, 0.0)] * 6
    for it in range(max_iterations + 1):
        if it == 0 and seed_frames is not None:
            frames = seed_frames
        else:
            frames = fk_frames(dh, q)
        origins, zaxes = frames
        px, py, pz = origins[6]
        ex = tx - px
        ey = ty - py
        ez = tz - pz
        res = math.sqrt(ex * ex + ey * ey + ez * ez)
        if res < best_res:
            best_res = res
            best_q = q.copy()
            best_frames = frames
        iterations = it
        if res <= tolerance:
            converged = 1
            break
        if it == max_iterations:
            break
        # geometric position Jacobian, column j = z_j x (p - o_j), and the
        # 3x3 system (J J^T + lam^2 I) y = e, solved by Cramer's rule
        m00 = lam2
        m01 = 0.0
        m02 = 0.0
        m11 = lam2
        m12 = 0.0
        m22 = lam2
        for j in range(6):
            ox, oy, oz = origins[j]
            zx, zy, zz = zaxes[j]
            rx = px - ox
            ry = py - oy
            rz = pz - oz
            jx = zy * rz - zz * ry
            jy = zz * rx - zx * rz
            jz = zx * ry - zy * rx
            columns[j] = (jx, jy, jz)
            m00 += jx * jx
            m01 += jx * jy
            m02 += jx * jz
            m11 += jy * jy
            m12 += jy * jz
            m22 += jz * jz
        det = (
            m00 * (m11 * m22 - m12 * m12)
            - m01 * (m01 * m22 - m12 * m02)
            + m02 * (m01 * m12 - m11 * m02)
        )
        if det == 0.0:
            break
        y0 = (
            ex * (m11 * m22 - m12 * m12)
            - m01 * (ey * m22 - m12 * ez)
            + m02 * (ey * m12 - m11 * ez)
        ) / det
        y1 = (
            m00 * (ey * m22 - m12 * ez)
            - ex * (m01 * m22 - m12 * m02)
            + m02 * (m01 * ez - ey * m02)
        ) / det
        y2 = (
            m00 * (m11 * ez - ey * m12)
            - m01 * (m01 * ez - ey * m02)
            + ex * (m01 * m12 - m11 * m02)
        ) / det
        for j in range(6):
            jx, jy, jz = columns[j]
            lower, upper = limits[j]
            qj = q[j] + (jx * y0 + jy * y1 + jz * y2)
            if qj < lower:
                qj = lower
            elif qj > upper:
                qj = upper
            q[j] = qj
    clamped = 0
    for qj, (lower, upper) in zip(best_q, limits):
        if qj <= lower or qj >= upper:
            clamped = 1
    return best_q, best_res, iterations, clamped, converged, best_frames


# ---------------------------------------------------------------------------
# sphere vs axis-aligned box signed distance
# ---------------------------------------------------------------------------

def sphere_box_signed_distance(point, center, half):
    """Signed distance from ``point`` to the box surface plus outward normal.

    ``point``, ``center`` and ``half`` (the half extents) are (x, y, z)
    tuples of floats.  Positive outside, negative inside.  The normal points
    from the box surface toward the point (for inside points: toward the
    nearest face).
    """
    dx = point[0] - center[0]
    dy = point[1] - center[1]
    dz = point[2] - center[2]
    qx = abs(dx) - half[0]
    qy = abs(dy) - half[1]
    qz = abs(dz) - half[2]
    px = qx if qx > 0.0 else 0.0
    py = qy if qy > 0.0 else 0.0
    pz = qz if qz > 0.0 else 0.0
    outside = math.sqrt(px * px + py * py + pz * pz)
    if outside > 0.0:
        nx = px / outside
        ny = py / outside
        nz = pz / outside
        if dx < 0.0:
            nx = -nx
        if dy < 0.0:
            ny = -ny
        if dz < 0.0:
            nz = -nz
        return outside, nx, ny, nz
    # inside (or on the surface): nearest face along the axis of max q
    inside = qx
    axis = 0
    if qy > inside:
        inside = qy
        axis = 1
    if qz > inside:
        inside = qz
        axis = 2
    nx = 0.0
    ny = 0.0
    nz = 0.0
    if axis == 0:
        nx = 1.0 if dx >= 0.0 else -1.0
    elif axis == 1:
        ny = 1.0 if dy >= 0.0 else -1.0
    else:
        nz = 1.0 if dz >= 0.0 else -1.0
    return inside, nx, ny, nz



# ---------------------------------------------------------------------------
# quantile Huber loss over pooled target atoms, with gradient
# ---------------------------------------------------------------------------

def quantile_huber_loss_grad(
    preds: np.ndarray, targets: np.ndarray, fractions: np.ndarray, with_loss: bool = True
):
    """Asymmetric Huber quantile loss (kappa=1) and d(loss)/d(preds).

    ``preds`` has shape (n_critics, batch, n_quantiles), ``targets``
    (batch, n_atoms).  The loss is the mean over every
    (critic, sample, quantile, atom) pair of ``|tau_m - 1{u<0}| * huber(u)``
    with ``u = target - prediction``, computed without an array per pair.

    With each target row sorted, the atoms facing a prediction ``z`` fall
    into four runs by ``u = t - z``: ``u < -1``, ``-1 <= u < 0``,
    ``0 <= u <= 1`` and ``u > 1``.  Per run, the sums of ``huber(u)`` and ``huber'(u)`` are
    closed forms in the run's atom count and its sums of ``t`` and ``t^2``,
    read off prefix sums; the weight is ``1 - tau`` below ``z`` and ``tau``
    from ``z`` up.  The run boundaries are the atom counts below ``z - 1``,
    below ``z`` and at most ``z + 1``, found by a branchless binary search
    over every row at once.  Values are centred on their row's mean so the
    quadratic sums keep their precision when returns are large.  Cost is
    O(N B M log K + B K log K) for N critics, B samples, M quantiles and K
    atoms, against O(N B M K) for pairwise loops.

    Returns ``(loss, grad)``.  With ``with_loss=False`` the loss is ``None``
    and the ``t^2`` prefix sums and loss sums are skipped; the gradient is
    the same array bit for bit.
    """
    n_crit, batch, n_quant = preds.shape
    n_atoms = targets.shape[1]
    # sorted rows padded with +inf to a power of two above n_atoms, so the
    # search needs no bounds checks; row b starts at flat index b * width
    width = 1 << n_atoms.bit_length()
    padded = np.full((batch, width), np.inf)
    padded[:, :n_atoms] = targets
    padded.sort(axis=1)
    atoms = padded[:, :n_atoms]
    center = atoms.mean(axis=1, keepdims=True)
    centred = atoms - center
    # prefix sums of t (and, for the loss, t^2) in the same layout: entry
    # b * width + i sums the i smallest atoms of row b
    sum1 = np.zeros((batch, width))
    np.cumsum(centred, axis=1, out=sum1[:, 1 : n_atoms + 1])

    # atoms below z - 1, below z, and at most z + 1 (= below its successor)
    queries = np.stack([preds - 1.0, preds, np.nextafter(preds + 1.0, np.inf)])
    row_start = np.arange(0, batch * width, width)[:, None]
    pos = np.broadcast_to(row_start, queries.shape).copy()
    flat = padded.ravel()
    step = width >> 1
    while step:
        # probe the atom at pos + step - 1 and jump past it when it is below
        pos += step * (flat[step - 1 :].take(pos) < queries)
        step >>= 1
    counts = pos - row_start

    # per boundary: sum of u over the atoms below it; huber(u) is -u - 1/2
    # below u = -1, u^2 / 2 up to u = 1 and u - 1/2 above, so its slope is
    # -1, u and 1 on those pieces
    y = preds - center
    below1 = sum1.take(pos)
    lin = below1 - counts * y
    (n1, n2, n3), (l1, l2, l3) = counts, lin
    grad_below = l2 - l1 - n1
    grad_above = l3 - l2 + (n_atoms - n3)

    scale = 1.0 / (n_crit * batch * n_quant * n_atoms)
    grad = -((1.0 - fractions) * grad_below + fractions * grad_above) * scale
    if not with_loss:
        return None, grad
    # the same for u^2, read off prefix sums of t^2
    sum2 = np.zeros((batch, width))
    np.cumsum(centred * centred, axis=1, out=sum2[:, 1 : n_atoms + 1])
    q1, q2, q3 = sum2.take(pos) - y * (below1 + lin)
    lin_all = sum1[:, n_atoms : n_atoms + 1] - n_atoms * y
    loss_below = 0.5 * (q2 - q1 - n1) - l1
    loss_above = 0.5 * (q3 - q2 - (n_atoms - n3)) + (lin_all - l3)
    loss = float(np.sum((1.0 - fractions) * loss_below + fractions * loss_above))
    return loss * scale, grad
