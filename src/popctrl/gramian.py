"""The terminal-space Gramians in block form, and every solve made with them.

`forward` computes the Gram sums of the control and initial Gramians of a
frozen-trace operator; this module alone knows their layout, the pair
basis (`_PairBasis`) of the targeted terminal entries for the young ages'
``birth_shares``: only the response directions are dense, and every spike
direction sits in a diagonal block (`GramianBlocks`).  Every solve factors
only a Schur complement on the min(Nt, N+1) dense directions: the
penalised solve of a penalty stage, the pseudo-inverse, and the pencil of
two forms that the observability power iteration climbs
(``pencil_maximum``).  The pseudo-inverse counts the null directions from
the eigenvalues of its Schur complement; when a gap separates them from
the live ones, LU solves with the complement bordered by one column per
null direction, and an LU inverse, give the rest, and no eigenvector is
computed.  Callers pass and receive stacked terminal vectors.
"""

import math

import numpy as np


def birth_shares(born, gamma):
    """(births, shares) of the young terminal ages from ``born``, the
    (male, female) spikes that the backward sweep carries from their unit
    vectors to age 0 (row 0 of ``forward``'s spike lattice).

    Those spikes inject the birth source E_p = (1 - gamma) s_m + gamma s_f
    (``births``) in the shares (a_p, b_p) = ((1 - gamma) s_m, gamma s_f) / E_p.
    """
    births = (1.0 - gamma) * born[0] + gamma * born[1]
    # a column whose spikes die before age 0 has no response: any split
    # serves, and (1, 0) keeps the pair rotation defined
    shares = np.zeros(born.shape)
    shares[0] = 1.0
    np.divide((1.0 - gamma) * born[0], births, out=shares[0], where=births != 0)
    np.divide(gamma * born[1], births, out=shares[1], where=births != 0)
    return births, shares


def _column(coefficients, like):
    """``coefficients`` shaped to scale the rows of a vector or of a block of columns."""
    return coefficients.reshape((-1,) + (1,) * (np.ndim(like) - 1))


def _span(indices):
    """Sorted ``indices`` as a slice when they are one contiguous run, as the
    ages a terminal mask selects are: a slice indexes without a copy."""
    if indices.size and indices[-1] - indices[0] + 1 == indices.size:
        return slice(int(indices[0]), int(indices[-1]) + 1)
    return indices


class _PairBasis:
    """An orthonormal basis of the span of the stacked terminal unit vectors
    that the age masks ``male`` and ``female`` select (its ``entries``).

    The two unit vectors of a young terminal age p inject one birth, in the
    shares (a_p, b_p) of ``birth_shares``: their images are S_m,p + a_p R_p
    and S_f,p + b_p R_p, with S their spikes and R_p the response to that
    birth.  When both are entries the pair rotation replaces them:
    u_p = alpha_p e_m,p + beta_p e_f,p and d_p = beta_p e_m,p - alpha_p e_f,p,
    with (alpha_p, beta_p) = (a_p, b_p) / hypot(a_p, b_p).  The image of u_p
    carries the response hypot(a_p, b_p) R_p, and that of d_p only its two
    spikes.  A young age with one entry keeps its unit vector as u_p, with
    (alpha_p, beta_p) = (1, 0) or (0, 1), and an older age, whose spikes
    never inject a birth, keeps its unit vectors.

    The dense directions are the u_p of the ages ``young``; the spike
    directions are the d_p of the dense positions ``paired``, then the
    older male entries ``old_m``, then the older female ones ``old_f``.  No
    two spike directions share a row of the sweep, so a Gramian is diagonal
    on them.  ``split`` gives the coordinates of a stacked vector (or block
    of columns) and ``merge`` the stacked vector of coordinates, zero off the
    entries; the directions are orthonormal, so each is the transpose and,
    on the entries, the inverse of the other.  ``dense_entries`` and
    ``spike_entries`` name one stacked entry of each direction, the male one
    of a pair, for weights that a pair's entries share.
    """

    def __init__(self, a, b, male, female):
        young = a.size
        self.size = size = male.size
        ages = np.flatnonzero(male[:young] | female[:young])
        both = male[ages] & female[ages]
        rho = np.hypot(a[ages], b[ages])
        self.alpha = np.where(both, a[ages] / rho, male[ages])
        self.beta = np.where(both, b[ages] / rho, female[ages])
        # the image of u_p carries sigma_p R_p
        self.sigma = self.alpha * a[ages] + self.beta * b[ages]
        self.paired = _span(np.flatnonzero(both))
        old_m = young + np.flatnonzero(male[young:])
        old_f = young + np.flatnonzero(female[young:])
        self.young, self.old_m, self.old_f = _span(ages), _span(old_m), _span(old_f)
        self.counts = (ages.size, int(np.count_nonzero(both)), old_m.size)  # dense, d, older male
        self.dense_entries = np.where(male[ages], ages, size + ages)
        self.spike_entries = np.concatenate([self.dense_entries[both], old_m, size + old_f])
        self.entries = np.flatnonzero(np.concatenate([male, female]))

    def split(self, y):
        """(dense, spike) coordinates of a stacked vector or block of columns."""
        y_m, y_f = y[:self.size], y[self.size:]
        young_m, young_f = y_m[self.young], y_f[self.young]
        alpha, beta = _column(self.alpha, y), _column(self.beta, y)
        pairs = (beta * young_m - alpha * young_f)[self.paired]
        return (alpha * young_m + beta * young_f,
                np.concatenate([pairs, y_m[self.old_m], y_f[self.old_f]]))

    def merge(self, x_dense, x_spike):
        """The stacked vector (or block) of (dense, spike) coordinates."""
        _, n_pairs, n_old_m = self.counts
        x_pair = np.zeros_like(x_dense)
        x_pair[self.paired] = x_spike[:n_pairs]
        alpha, beta = _column(self.alpha, x_dense), _column(self.beta, x_dense)
        y = np.zeros((2 * self.size,) + np.shape(x_dense)[1:])
        y_m, y_f = y[:self.size], y[self.size:]
        # a young age with one entry has a zero coefficient in the other slot
        y_m[self.young] = alpha * x_dense + beta * x_pair
        y_f[self.young] = beta * x_dense - alpha * x_pair
        y_m[self.old_m] = x_spike[n_pairs:n_pairs + n_old_m]
        y_f[self.old_f] = x_spike[n_pairs + n_old_m:]
        return y

    def vectors(self):
        """The directions as columns, dense ones first, in the unit
        coordinates of ``entries``."""
        dense = self.counts[0]
        eye = np.eye(dense + self.spike_entries.size)
        return self.merge(eye[:dense], eye[dense:])[self.entries]


class GramianBlocks:
    """A Gramian of terminal work vectors on a ``_PairBasis``, in block form.

    ``dense`` is the block A on the basis's dense directions, ``cross`` the
    block C between them and its spike directions, and ``diag`` the diagonal
    Delta of the spike block.  Every solve with the form is made here:
    Delta is eliminated and only a Schur complement A - C W C^T on the dense
    directions is factored.  Stacked vectors enter through the basis's
    ``split`` and leave through its ``merge``; ``matrix`` expands the form
    to the unit vectors of the basis's entries on demand.
    """

    def __init__(self, dense, cross, diag, basis):
        self.dense, self.cross, self.diag = dense, cross, diag
        self.basis = basis
        self._matrix = None

    def matrix(self):
        """The matrix on the unit vectors of ``basis.entries``, in their
        stacked order, symmetric to rounding; built on first use and cached."""
        if self._matrix is None:
            q = self.basis.vectors()
            self._matrix = q @ np.block([[self.dense, self.cross],
                                         [self.cross.T, np.diag(self.diag)]]) @ q.T
        return self._matrix

    def apply(self, x_dense, x_spike):
        """The product with the vector (or columns) of dense part ``x_dense``
        and spike part ``x_spike``, split the same way."""
        return (self.dense @ x_dense + self.cross @ x_spike,
                self.cross.T @ x_dense + (self.diag * x_spike.T).T)

    def quadratic(self, x_dense, x_spike):
        """x . F x of the vector, or of each column, split as in ``apply``."""
        f_dense, f_spike = self.apply(x_dense, x_spike)
        return np.sum(x_dense * f_dense, axis=0) + np.sum(x_spike * f_spike, axis=0)

    def energy(self, x):
        """x . F x of a stacked vector, or of each column of a stacked block;
        entries off the basis count as zero."""
        return self.quadratic(*self.basis.split(x))

    def max_abs(self):
        """The largest |entry| of the form."""
        return max(float(np.max(np.abs(part), initial=0.0))
                   for part in (self.dense, self.cross, self.diag))

    def schur(self, spike_weights):
        """A - C diag(spike_weights) C^T, a new array."""
        return self.dense - (self.cross * spike_weights) @ self.cross.T

    def penalised_solve(self, weights, rhs):
        """Solve (I + diag(weights) F) c = rhs on the basis, for a stacked
        ``rhs``; c is stacked and zero off the basis's entries.

        ``weights`` are nonnegative, one per stacked entry and equal on the
        two entries of a pair, so that they commute with the pair rotation.
        Delta is eliminated, so only the Schur complement on the dense
        directions is formed and factored.
        """
        basis = self.basis
        d_dense, d_spike = weights[basis.dense_entries], weights[basis.spike_entries]
        r_dense, r_spike = basis.split(rhs)
        diag = 1.0 + d_spike * self.diag
        schur = self.schur(d_spike / diag)
        schur *= d_dense[:, None]
        schur.flat[::schur.shape[0] + 1] += 1.0  # the diagonal
        c_dense = np.linalg.solve(schur, r_dense - d_dense * (self.cross @ (r_spike / diag)))
        c_spike = (r_spike - d_spike * (self.cross.T @ c_dense)) / diag
        return basis.merge(c_dense, c_spike)

    def null_cut(self):
        """1e-12 max(|A|_F, max Delta): below it a direction of this positive
        semidefinite form counts as null.  |A|_F lies in [lambda_max(A),
        sqrt(rank A) lambda_max(A)], so the scale is within that of
        lambda_max(F) / 2."""
        top = max(float(np.max(self.diag, initial=0.0)), float(np.linalg.norm(self.dense)))
        return 1e-12 * max(top, 1e-300)

    def pseudo_inverse(self):
        """The pseudo-inverse F^- of this positive semidefinite form, and its
        null directions, both under ``null_cut``.

        Returns (solve, null_dense, null_spike, dead).  ``solve(y_dense,
        y_spike)`` gives (x_dense, x_spike, y . x) for x = F^- y, where F^-
        eliminates Delta by blocks and takes the Moore-Penrose inverse S^+ of
        the Schur complement S = A - C Delta^+ C^T, so F F^- F = F.  The null
        directions are the dead spikes, flagged in ``dead``, and an
        orthonormal basis Q of the null space of S, lifted to
        (Q, -Delta^+ C^T Q): the columns of (null_dense, null_spike).  The
        eigenvalues of S at or below the cut
        count them, and null_dense has as many columns as rows exactly when S
        has no live eigenvalue.

        S is formed as the syrk A - B B^T with B = C sqrt(Delta^+), so it is
        exactly symmetric, and ``eigvalsh`` counts its null eigenvalues.  When
        no live one lies within ``_GAP`` times the cut, ``_gap_split`` finds
        S^+ and Q without eigenvectors; otherwise, or when its border is too
        far from the null space, ``eigh`` splits S.  The syrk, ``eigvalsh``
        and the LU and qr calls of ``_gap_split`` stay on the calling BLAS
        thread at larger sizes than ``eigh`` (README, on BLAS threads).
        """
        cut = self.null_cut()
        live_spikes = self.diag > cut
        inv_diag = np.divide(1.0, self.diag, out=np.zeros_like(self.diag), where=live_spikes)
        half = self.cross * np.sqrt(inv_diag)
        schur = self.dense - half @ half.T  # a syrk: exactly symmetric
        vals = np.linalg.eigvalsh(schur)
        null = int(np.count_nonzero(vals <= cut))
        split = None
        if null == vals.size or vals[null] > _GAP * cut:
            split = _gap_split(schur, null, cut)
        if split is None:
            vals, vecs = np.linalg.eigh(schur)
            live = vals > cut
            whiten = vecs[:, live] / np.sqrt(vals[live])
            split = whiten @ whiten.T, vecs[:, ~live]
        generalized, null_dense = split
        null_spike = -inv_diag[:, None] * (self.cross.T @ null_dense)
        reduced = self.cross * inv_diag  # C Delta^+
        reduced_t = reduced.T

        def solve(y_dense, y_spike):
            x_dense = generalized @ (y_dense - reduced @ y_spike)
            x_spike = inv_diag * y_spike - reduced_t @ x_dense
            return x_dense, x_spike, float(y_dense @ x_dense) + float(y_spike @ x_spike)
        return solve, null_dense, null_spike, ~live_spikes


_GAP = 1e3  # the least ratio of S's smallest live eigenvalue to the cut for _gap_split


def _gap_split(schur, null, cut):
    """(S^+, Q) of the Schur complement S, with Q an orthonormal basis of its
    null space, when ``null`` eigenvalues of S lie at or below ``cut`` and
    no live one within ``_GAP`` times it; None when the border below is too
    far from the null space.  No eigenvector is computed.

    S is bordered by a block U of one column per null direction: the last
    columns of the inverse of [[S, U], [U^T, 0]] are [[V], [0]], with
    U^T V = I and S V = 0, for any U that no null vector is orthogonal to;
    ``null`` solves give them.  U is the unit vectors of the ``null``
    directions of least diagonal, which a null vector concentrated on a few
    directions favours, times t = trace S.  Q is V orthonormalised, S + t Q Q^T
    is definite, and S^+ is its inverse less Q Q^T / t; that inverse and S
    share their live eigenvectors, so no large terms cancel.  The null
    eigenvalues are not exact zeros: S V is then about their size times |V|
    over the cosine between U and the null space, and V leaves the null
    space by their ratio to the smallest live one over that cosine.  A border
    nearly orthogonal to the null space leaves the bordered matrix nearly
    singular and V no null basis; |S V| above 10 cut |V| shows either.
    """
    size = schur.shape[0]
    scale = float(np.trace(schur)) + cut
    least = np.argsort(np.diagonal(schur), kind="stable")[:null]
    bordered = np.zeros((size + null,) * 2)
    bordered[:size, :size] = schur
    bordered[least, size + np.arange(null)] = scale
    bordered[size + np.arange(null), least] = scale
    ends = np.zeros((size + null, null))
    ends[size + np.arange(null), np.arange(null)] = 1.0
    null_dense = np.linalg.solve(bordered, ends)[:size]
    if np.linalg.norm(schur @ null_dense) > 10.0 * cut * np.linalg.norm(null_dense):
        return None
    null_dense = np.linalg.qr(null_dense)[0]
    projection = null_dense @ null_dense.T
    return np.linalg.inv(schur + scale * projection) - projection / scale, null_dense


def _gram_blocks(live, cross, diag, basis):
    """The Gramian of the ingredients (live, cross, diag) on ``basis``, a
    ``_PairBasis`` of the birth shares (a, b), by closed formulas.

    ``live`` is the Gram matrix of the young ages' responses R, ``cross``
    the products of every terminal age's female spike with them, and
    ``diag`` the squares D_m, D_f of the spikes of both slots.  The image of
    u_p is alpha_p S_m,p + beta_p S_f,p + sigma_p R_p, sigma_p = alpha_p a_p
    + beta_p b_p; R lives in the female rows only, and no two spikes share a
    row.  So, with Z[p, q] = cross[q, p] the female spike of age q against
    R_p:
      A[p, q] = sigma_p sigma_q live[p, q] + sigma_p beta_q Z[p, q]
                + beta_p sigma_q Z[q, p] + [p = q] (alpha_p^2 D_m,p + beta_p^2 D_f,p);
    C[u_p, d_q] = -sigma_p alpha_q Z[p, q] + [p = q] alpha_p beta_p (D_m,p - D_f,p);
    C[u_p, older male q] = 0 and C[u_p, older female q] = sigma_p cross[q, p];
    Delta is beta_p^2 D_m,p + alpha_p^2 D_f,p on d_p and D on the older
    spikes.  The blocks that vanish are never summed, so they are exact
    zeros: every spike of a young age ends before level 0, so the initial
    Gramian is exactly 0 on the d directions.
    """
    ages, pairs, old_m, old_f = basis.young, basis.paired, basis.old_m, basis.old_f
    n_dense, n_pairs, n_old_m = basis.counts
    alpha, beta, sigma = basis.alpha, basis.beta, basis.sigma
    z = cross[ages][:, ages].T
    spike_m, spike_f = diag[0, ages], diag[1, ages]
    mixed = sigma[:, None] * z * beta
    dense = np.outer(sigma, sigma) * live[ages][:, ages] + (mixed + mixed.T)
    dense.flat[::n_dense + 1] += alpha * alpha * spike_m + beta * beta * spike_f  # the diagonal
    spike_diag = np.concatenate([(beta * beta * spike_m + alpha * alpha * spike_f)[pairs],
                                 diag[0, old_m], diag[1, old_f]])
    spike_cross = np.zeros((n_dense, spike_diag.size))
    spike_cross[:, :n_pairs] = -sigma[:, None] * z[:, pairs] * alpha[pairs]
    spike_cross[np.arange(n_dense)[pairs], np.arange(n_pairs)] += \
        (alpha * beta * (spike_m - spike_f))[pairs]
    spike_cross[:, n_pairs + n_old_m:] = sigma[:, None] * cross[old_f][:, ages].T
    return GramianBlocks(dense, spike_cross, spike_diag, basis)


def pencil_maximum(num, den, iters):
    """The top eigenvalue of the pencil (N, D) of the forms ``num`` and
    ``den`` on one basis, the maximum of x . N x / x . D x, on the live
    space of D that its ``pseudo_inverse`` counts.

    math.inf when N has energy on the null space of D's ``pseudo_inverse``:
    when its trace there, the sum of x . N x over an orthonormal basis of
    the space, which is the same for every such basis, exceeds 1e-10 max|N|.
    0.0 when every direction is null.  Otherwise ``iters`` >= 1 power steps,
    which approach that eigenvalue from below: from the all-ones stacked x
    scaled to x . D x = 1, each forms y = N x, takes x . y as a quotient and
    moves to x = D^- y / sqrt(y . D^- y).  The null count is the Schur
    complement's, so where small eigenvalues straddle the cut the live space
    can hold a direction that the expanded form calls null, and the value
    can exceed the dense whitened pencil's (0.006562 against 0.005573 in
    the strict xfail
    ``test_pseudo_inverse_counts_the_null_directions_of_the_expanded_form``).
    """
    solve, null_dense, null_spike, dead = den.pseudo_inverse()
    # the lifted null directions Z are zero on the dead spikes, which are
    # unit vectors on N's diagonal block: the trace is that of
    # (Z^T Z)^-1 Z^T N Z plus N's diagonal on the dead spikes
    f_dense, f_spike = num.apply(null_dense, null_spike)
    restricted = np.linalg.solve(null_dense.T @ null_dense + null_spike.T @ null_spike,
                                 null_dense.T @ f_dense + null_spike.T @ f_spike)
    if np.trace(restricted) + np.sum(num.diag[dead]) > 1e-10 * max(num.max_abs(), 1e-300):
        return math.inf
    size = null_dense.shape[0]
    if null_dense.shape[1] == size and np.all(dead):
        return 0.0  # every direction is null

    # start from the all-ones terminal direction, so the iterates do not
    # depend on the null basis that D's pseudo_inverse picks
    x_dense, x_spike = den.basis.split(np.ones(2 * den.basis.size))
    x = np.concatenate([x_dense, x_spike]) / math.sqrt(float(den.quadratic(x_dense, x_spike)))
    # the steps carry x and y stacked, dense part first, in place, and N's
    # dense rows as one block
    rows, cross_t = np.hstack([num.dense, num.cross]), num.cross.T
    y = np.empty_like(x)
    x_dense, x_spike, y_dense, y_spike = x[:size], x[size:], y[:size], y[size:]
    best = 0.0
    for _ in range(iters):
        np.matmul(rows, x, out=y_dense)
        np.multiply(num.diag, x_spike, out=y_spike)
        y_spike += cross_t @ x_dense
        f_dense, f_spike, energy = solve(y_dense, y_spike)
        if energy <= 0.0:  # y = 0, or D^- y null to rounding
            break
        best = max(best, float(x @ y))
        norm = math.sqrt(energy)
        np.divide(f_dense, norm, out=x_dense)
        np.divide(f_spike, norm, out=x_spike)
    return max(best, float(num.quadratic(x_dense, x_spike)))
