"""Legacy setup shim.

The build configuration lives in ``pyproject.toml``.  This file exists
so that ``python setup.py develop`` can install the package and its
``salo-repro`` command in offline environments without the ``wheel``
package, where ``pip install -e .`` fails with ``invalid command
'bdist_wheel'``.
"""

from setuptools import setup

setup()
