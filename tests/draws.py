"""The hand-sized channel draw that the channel, receiver and selection
tests share."""

from antsel.channel import complex_gaussian, stream_generator


def rand_matrix(n_r, n_t, seed=0, stream=0):
    """An (n_r, n_t) matrix of iid CN(0, 1) entries from stream ``stream``
    of ``seed``."""
    return complex_gaussian(stream_generator(seed, stream), (n_r, n_t))
