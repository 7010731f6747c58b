"""Computed (not measured) bytes moved and flops of the solver kernels.

The figures follow the numpy code of ``MeasurementOp`` and ``solve_factor``
operation by operation.  Each array operation is charged its compulsory
traffic: every input read once and every output written once, with complex
values at 16 bytes, boolean masks at 1 byte, and no reuse from cache.  A
complex multiply-add is 8 flops, a complex add or a real-by-complex scale 2,
and |z|^2 inside a norm 4.  Selecting, copying and permuting entries are 0
flops.  Divide a figure by a measured time to read that time as a rate.

Shapes: the operator maps a p x q factor-domain matrix to a data-domain
matrix of the same size; the held-fixed factor is q x r; |Omega| is the
number of observed entries.
"""

from __future__ import annotations

C = 16  # bytes per complex128


def op_call(p: int, q: int, identity: bool) -> dict:
    """One ``forward`` or ``adjoint`` call.

    Both do a ``np.where`` over the whole p x q grid (mask read, values
    read, result written: 33 bytes per entry), and with a matricization
    also a fold/unfold permutation that copies the matrix once more
    (32 bytes per entry).  Neither does arithmetic.
    """
    per_entry = 1 + 2 * C + (0 if identity else 2 * C)
    return {"bytes": per_entry * p * q, "flops": 0}


def pd_iteration(p: int, q: int, r: int, identity: bool, flipped: bool = False) -> dict:
    """One loop iteration of ``solve_factor`` for a p x r unknown factor.

    ``flipped`` is the R-subproblem, which goes through the conjugate
    transpose view and pays two extra conjugate copies per operator call.
    """
    pq, pr, qr = p * q, p * r, q * r
    op = op_call(p, q, identity)["bytes"] + (4 * C * pq if flipped else 0)
    bytes_ = (
        2 * op                        # adjoint(y) and forward(L_new @ R^H)
        + C * (pq + qr + pr)          # adjoint(y) @ R
        + C * 7 * pr                  # L - gamma * G, then / (1 + gamma)
        + C * pr                      # norm(L_new)
        + C * (pr + qr + pq)          # L_new @ R^H
        + C * 15 * pq                 # dual step: 2AL_new - AL, scale, add, - gamma b
        + C * 3 * pq                  # shrink: norm and rescale
        + C * 4 * pq                  # residual AL_new - b and its norm
        + C * 5 * pr                  # primal change norm and norm(L)
    )
    flops = (
        8 * pq * r * 2                # the two matrix products
        + 6 * pr + 4 * pr             # primal step and its norm
        + 12 * pq + 6 * pq + 6 * pq   # dual step, shrink, residual norm
        + 10 * pr                     # primal change
    )
    return {"bytes": bytes_, "flops": flops}
